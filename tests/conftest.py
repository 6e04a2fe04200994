from __future__ import annotations

import numpy as np
import pytest

from stationwatch import (DecodeConfig, GroundTruthFrame, RawTensorSet, TensorStreamHeader,
                          encode_objects_to_tensors)


def _background_frame(header: TensorStreamHeader, index: int) -> RawTensorSet:
    """A frame whose every cell is dead: no detections at any threshold."""
    return encode_objects_to_tensors(
        GroundTruthFrame(index, ()), DecodeConfig(strides=header.strides),
        header.image_width, header.image_height, header.num_classes,
    )


@pytest.fixture
def background_frame():
    return _background_frame


def _full_frame(rng, index: int = 0) -> RawTensorSet:
    """A 640x640 frame of two classes with every cell of every level live."""
    outputs = []
    for stride in (8, 16, 32):
        side = 640 // stride
        grid = np.empty((side, side, 7), dtype=np.float32)
        grid[..., 0:2] = rng.uniform(0.0, 1.0, (side, side, 2))
        grid[..., 2:4] = rng.uniform(0.0, 1.5, (side, side, 2))
        grid[..., 4] = 20.0
        grid[..., 5:] = rng.uniform(0.0, 4.0, (side, side, 2))
        outputs.append(grid)
    return RawTensorSet(index, tuple(outputs), 640, 640)


@pytest.fixture
def full_frame():
    return _full_frame
