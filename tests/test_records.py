"""The package's records are frozen, slotted dataclasses, and only ``model`` builds them around their constructors.

Every dataclass in ``model.py``, ``protocol.py`` and ``shipping.py`` (ids,
descriptors, payloads, the twelve message variants, pipeline parts, results
and registrations) is checked here: assigning or deleting any attribute
raises ``FrozenInstanceError``, no instance has a ``__dict__``, equality,
hashing, ``repr``, copies and a pickle round trip behave as for the
constructor-built object, and the builder of each class (``model._builder``)
gives an object equal to the constructor's. Two ``ast`` checks keep it so: a
new record must be declared slotted and frozen, and only ``model.py`` may
create an instance or set a slot around a constructor.
"""
import ast
import copy
import dataclasses
import pickle
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from remotable import model, protocol, shipping
from remotable.model import EndpointAddr, ObjectId, RemoteRefDescriptor
from remotable.protocol import CODEC_RV1, ValuePayload
from remotable.shipping import InlineValue, RemoteRef, ShippedFn, Stage

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "remotable"
RECORD_MODULES = (model, protocol, shipping)

OID = ObjectId(3, 4)
DESCRIPTOR = RemoteRefDescriptor(EndpointAddr("loop", 1), OID)
PAYLOAD = ValuePayload(CODEC_RV1, b"\x01" + bytes(7) + b"\x05")
STAGE = Stage("add", (InlineValue(2), RemoteRef(DESCRIPTOR)))
PIPELINE = ShippedFn((STAGE, Stage("inc")))

# One constructor-built sample of every record class
SAMPLES = {
    ObjectId: OID,
    RemoteRefDescriptor: DESCRIPTOR,
    ValuePayload: PAYLOAD,
    protocol.Rebind: protocol.Rebind("name", DESCRIPTOR),
    protocol.Lookup: protocol.Lookup("name"),
    protocol.Map: protocol.Map(OID, PIPELINE),
    protocol.FlatMap: protocol.FlatMap(OID, PIPELINE),
    protocol.Get: protocol.Get(OID),
    protocol.Export: protocol.Export(PAYLOAD),
    protocol.Stats: protocol.Stats(OID),
    protocol.RespDescriptor: protocol.RespDescriptor(DESCRIPTOR),
    protocol.RespValue: protocol.RespValue(PAYLOAD),
    protocol.RespStats: protocol.RespStats(1, 2),
    protocol.RespAck: protocol.RespAck(),
    protocol.RespError: protocol.RespError(5, "text"),
    InlineValue: InlineValue(7, OID),
    RemoteRef: RemoteRef(DESCRIPTOR),
    Stage: STAGE,
    ShippedFn: PIPELINE,
    shipping.PlainValue: shipping.PlainValue(3),
    shipping.RemoteValue: shipping.RemoteValue(DESCRIPTOR),
    shipping._Registration: shipping._Registration(1, len),
}

# The builder the package builds each class with; the rest get a fresh one
BUILDERS = {
    ObjectId: model._new_id,
    RemoteRefDescriptor: model._new_descriptor,
    ValuePayload: protocol._new_payload,
    **protocol._BUILDERS,
    InlineValue: shipping._new_inline,
    RemoteRef: shipping._new_ref,
    Stage: shipping._new_stage,
    ShippedFn: shipping._new_pipeline,
    shipping.PlainValue: shipping._new_plain,
}


def _record_classes():
    return {value for module in RECORD_MODULES for value in vars(module).values()
            if isinstance(value, type) and dataclasses.is_dataclass(value)
            and value.__module__ == module.__name__}


def test_every_record_class_has_a_sample():
    assert set(SAMPLES) == _record_classes()


CLASSES = list(SAMPLES)


def _field_names(cls):
    return [field.name for field in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_assignment_and_deletion_is_refused(cls):
    instance = SAMPLES[cls]
    for name in _field_names(cls) + ["not_a_field", "__dict__"]:
        with pytest.raises(FrozenInstanceError):
            setattr(instance, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(instance, name)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_no_instance_has_a_dict(cls):
    assert not hasattr(SAMPLES[cls], "__dict__")
    assert "__slots__" in vars(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_match_the_constructor_built_object(cls):
    instance = SAMPLES[cls]
    for other in (copy.copy(instance), copy.deepcopy(instance),
                  pickle.loads(pickle.dumps(instance))):
        assert type(other) is cls
        assert other == instance
        assert hash(other) == hash(instance)
        assert repr(other) == repr(instance)
        assert [getattr(other, name) for name in _field_names(cls)] == [
            getattr(instance, name) for name in _field_names(cls)]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_builder_built_object_equals_the_constructor_built_one(cls):
    instance = SAMPLES[cls]
    build = BUILDERS.get(cls) or model._builder(cls)
    built = build(*(getattr(instance, name) for name in _field_names(cls)))
    assert type(built) is cls
    assert built == instance
    assert hash(built) == hash(instance)
    assert repr(built) == repr(instance)
    assert not hasattr(built, "__dict__")
    with pytest.raises(FrozenInstanceError):
        built.not_a_field = 1


def test_the_dict_setting_builder_is_gone():
    assert not hasattr(model, "_built")


def test_a_decoded_capture_is_marked_as_one():
    # the one field a constructor cannot set: the decoder's mark
    built = shipping._new_inline(7, None, True)
    assert built.decoded and not InlineValue(7).decoded
    assert built == InlineValue(7)


# -- ast checks ----------------------------------------------------------------


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _decorator_name(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return target.id if isinstance(target, ast.Name) else ast.unparse(target)


def _keywords(decorator):
    if not isinstance(decorator, ast.Call):
        return {}
    return {keyword.arg: ast.literal_eval(keyword.value) for keyword in decorator.keywords}


def test_every_record_is_declared_slotted_and_frozen():
    records, strays = 0, []
    for module in RECORD_MODULES:
        path = PACKAGE / f"{module.__name__.rpartition('.')[2]}.py"
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.ClassDef):
                continue
            names = [_decorator_name(decorator) for decorator in node.decorator_list]
            for decorator in node.decorator_list:
                if _decorator_name(decorator) != "dataclass":
                    continue
                records += 1
                keywords = _keywords(decorator)
                if not (keywords.get("frozen") is True and keywords.get("slots") is True
                        and names[0] == "_frozen"):
                    strays.append(f"{path.name}:{node.lineno} {node.name}")
    assert records == len(SAMPLES)  # every record class is a decorated one
    assert not strays


# Creating an instance or setting an attribute around every check a class makes
BYPASSES = {"__new__", "__setattr__", "__delattr__"}


def _is_bypass(node):
    return (isinstance(node, ast.Attribute) and node.attr in BYPASSES
            and isinstance(node.value, ast.Name) and node.value.id == "object")


def _bypass_aliases():
    """The names ``model.py`` binds to ``object``'s bypasses (``_new = object.__new__``)."""
    return {
        target.id
        for node in ast.walk(_tree(PACKAGE / "model.py"))
        if isinstance(node, ast.Assign) and _is_bypass(node.value)
        for target in node.targets if isinstance(target, ast.Name)
    }


def test_only_model_builds_around_constructors():
    aliases = _bypass_aliases()
    assert aliases  # the check below looks for these names
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module in ("model", "remotable.model"):
                strays += [f"{path.name}:{node.lineno} imports {alias.name}"
                           for alias in node.names if alias.name in aliases]
            elif isinstance(node, ast.Attribute) and (
                    _is_bypass(node) or node.attr in ("__set__", "__dict__")):
                strays.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not strays
