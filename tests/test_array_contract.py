"""The one array contract, ``tensor.as_float``, and the parameter
containers that state their field -> shape tables through it.

Every array field of ``ATConvParams``, ``GluParams``, ``ToySAParams`` and a
static-kernel ``ATConvConfig`` is checked the same way: a wrong rank or
length raises DimensionError, an integer dtype ArgumentError, and each
message starts with the field's name and states the shape it expected.
Valid contiguous float arrays are kept by identity, which the in-place
Adam step relies on; other valid arrays are rebound to contiguous copies.
"""

import numpy as np
import pytest

from atconv.baselines import ToySAParams
from atconv.errors import ArgumentError, DimensionError
from atconv.micro import GluParams
from atconv.op import PARAM_NAMES, ATConvConfig, ATConvParams
from atconv.rng import Rng
from atconv.tensor import as_float, as_vector

F32 = np.float32


# ----------------------------------------------------------------------
# as_float
# ----------------------------------------------------------------------

def test_as_float_keeps_a_valid_contiguous_array():
    for dtype in (np.float32, np.float64):
        a = np.zeros((2, 3), dtype)
        assert as_float(a, (2, 3), "a") is a
        assert as_float(a, (None, 3), "a") is a
        assert as_float(a, (None, None), "a") is a


def test_as_float_copies_only_what_is_not_contiguous():
    a = np.arange(12.0).reshape(3, 4)
    got = as_float(a.T, (4, 3), "a")
    assert got.flags.c_contiguous and np.array_equal(got, a.T)
    got = as_float([[1.0, 2.0]], (1, 2), "a")
    assert got.dtype == np.float64 and got.tolist() == [[1.0, 2.0]]
    half = np.ones(4, F32)[::2]
    got = as_float(half, (2,), "a")
    assert got.dtype == F32 and got.flags.c_contiguous


@pytest.mark.parametrize("value, shape, error, message", [
    # the rank is checked before the dtype, the dtype before the lengths
    (np.zeros(3, np.int64), (3, 3), DimensionError, "a must be (3, 3), got shape (3,)"),
    (np.zeros((2, 3), np.int64), (4, 4), ArgumentError,
     "a (4, 4) must be float32 or float64, got int64"),
    (np.zeros((2, 3)), (2, 4), DimensionError, "a must be (2, 4), got shape (2, 3)"),
    (np.zeros((2, 3)), (None, 4), DimensionError, "a must be (?, 4), got shape (2, 3)"),
    (np.zeros(2), (3,), DimensionError, "a must be (3,), got shape (2,)"),
    (np.float64(1.0), (None,), DimensionError, "a must be (?,), got shape ()"),
    (np.zeros(2, np.float16), (2,), ArgumentError, "a (2,) must be float32 or float64"),
])
def test_as_float_errors(value, shape, error, message):
    with pytest.raises(error) as info:
        as_float(value, shape, "a")
    assert str(info.value).startswith(message)


def test_as_vector_is_its_1d_case():
    v = np.zeros(5, F32)
    assert as_vector(v) is v and as_vector(v, 5) is v
    with pytest.raises(DimensionError, match=r"^bias must be \(4,\)"):
        as_vector(v, 4, "bias")


# ----------------------------------------------------------------------
# the parameter containers' field tables
# ----------------------------------------------------------------------

def _static_config(**kw):
    config = ATConvConfig(use_kernel_generator=False, **kw)
    config.validate(3, 3)
    return config


# name -> (build from keyword arguments, valid keyword arguments, array
# fields). Widths differ (C=3 against E=6 and d=2) so a swapped axis shows.
CONTAINERS = {
    "ATConvParams": (ATConvParams, lambda: vars(ATConvParams.init(Rng(1), 3, 3, F32)),
                     PARAM_NAMES),
    "GluParams": (GluParams, lambda: vars(GluParams.init(Rng(2), 3, 2, F32)),
                  ("w_a", "b_a", "w_b", "b_b", "w_c", "b_c")),
    "ToySAParams": (ToySAParams, lambda: vars(ToySAParams.init(Rng(3), 3, d=2, dtype=F32)),
                    ("w_q", "w_k", "w_v", "w_o")),
    "ATConvConfig": (_static_config,
                     lambda: {"static_kernel": Rng(4).normal(0, 1, (3, 9), F32)},
                     ("static_kernel",)),
}
FIELDS = [(name, field) for name, (_, _, fields) in CONTAINERS.items() for field in fields]


def _wrong_rank(a):
    return a[..., None]


def _integer(a):
    return a.astype(np.int64)


def _wrong_length(a):
    # the last axis: every container reads its widths from a first axis,
    # so the field itself is the one that disagrees
    return np.zeros(a.shape[:-1] + (a.shape[-1] + 1,), a.dtype)


@pytest.mark.parametrize("spoil, error", [
    (_wrong_rank, DimensionError),
    (_integer, ArgumentError),
    (_wrong_length, DimensionError),
])
@pytest.mark.parametrize("container, field", FIELDS)
def test_a_bad_field_is_named_with_its_expected_shape(container, field, spoil, error):
    build, valid, _ = CONTAINERS[container]
    kw = dict(valid())
    expected = str(kw[field].shape)
    kw[field] = spoil(kw[field])
    with pytest.raises(error) as info:
        build(**kw)
    message = str(info.value)
    assert message.startswith(f"{field} ")
    assert expected in message


@pytest.mark.parametrize("container", CONTAINERS)
def test_valid_contiguous_float_fields_are_kept_by_identity(container):
    # named_parameters() aliases these arrays for the in-place Adam step
    build, valid, fields = CONTAINERS[container]
    kw = dict(valid())
    built = build(**kw)
    assert all(getattr(built, field) is kw[field] for field in fields)


@pytest.mark.parametrize("container", CONTAINERS)
def test_strided_fields_are_rebound_to_contiguous_copies(container):
    build, valid, fields = CONTAINERS[container]
    kw = dict(valid())
    strided = {field: np.repeat(kw[field], 2, axis=-1)[..., ::2] for field in fields}
    assert not any(a.flags.c_contiguous for a in strided.values())
    built = build(**{**kw, **strided})
    for field in fields:
        got = getattr(built, field)
        assert got.flags.c_contiguous and got.dtype == F32
        assert np.array_equal(got, kw[field])
