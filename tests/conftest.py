from __future__ import annotations

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
