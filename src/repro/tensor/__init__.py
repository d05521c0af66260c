"""Tensor and dtype emulation substrate.

The paper's system manipulates PyTorch tensors in fp32/fp16/bf16.  This
package provides the equivalent primitives over numpy: explicit dtype
emulation (including bfloat16, which numpy lacks natively).
"""

from repro.tensor.dtypes import (
    DType,
    FP32,
    FP16,
    BF16,
    cast,
    bf16_round,
    fp16_round,
    dtype_from_name,
    itemsize,
)

__all__ = [
    "DType",
    "FP32",
    "FP16",
    "BF16",
    "cast",
    "bf16_round",
    "fp16_round",
    "dtype_from_name",
    "itemsize",
]
