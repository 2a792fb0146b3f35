import pytest

from remotable import (
    ContractViolationError,
    ExecutionError,
    NotFoundError,
    NotSerializableError,
    ProtocolError,
    UnknownFunctionError,
    UnknownObjectError,
)
from remotable.errors import error_for_code


@pytest.mark.parametrize(
    "code, cls",
    [
        (1, NotFoundError),
        (2, UnknownObjectError),
        (3, UnknownFunctionError),
        (4, NotSerializableError),
        (5, ContractViolationError),
        (6, ExecutionError),
        (7, ProtocolError),
    ],
)
def test_each_wire_code_rebuilds_its_class(code, cls):
    error = error_for_code(code, "some text")
    assert type(error) is cls
    assert error.code == code
    assert str(error) == "some text"


@pytest.mark.parametrize("code", [0, 8, 255])
def test_unknown_wire_code_is_a_protocol_error(code):
    error = error_for_code(code, "some text")
    assert type(error) is ProtocolError
    assert str(error) == f"unknown error code {code}: some text"
