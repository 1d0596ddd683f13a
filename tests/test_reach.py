"""``tools/reach.py`` maps a code object that ran to its ``def`` statement."""

import importlib.util
import os
import textwrap

import pytest

REACH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "reach.py")

TOY = textwrap.dedent(
    '''
    import functools


    def plain():
        return 1


    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)

        return wrapper


    @wrap
    @functools.lru_cache(maxsize=None)
    def decorated(x):
        return x + 1


    class Outer:
        @property
        def value(self):
            return [i for i in range(2)]

        class Inner:
            @staticmethod
            def deep():
                def helper():
                    return 3

                return helper


    def never():
        def inside():
            return 0

        return inside
    '''
)


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", REACH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def toy():
    namespace = {}
    exec(compile(TOY, "toy.py", "exec"), namespace)
    return namespace


def key(code):
    return code.co_firstlineno, code.co_name


def test_each_code_object_maps_to_its_definition(reach, toy):
    found = reach.definitions(TOY)
    helper = toy["Outer"].Inner.deep()
    codes = [
        toy["plain"].__code__,
        toy["wrap"].__code__,
        toy["decorated"].__wrapped__.__wrapped__.__code__,  # under two decorators
        toy["decorated"].__code__,  # the wrapper the decorator returned
        toy["Outer"].value.fget.__code__,
        toy["Outer"].Inner.deep.__code__,
        helper.__code__,
    ]
    for code in codes:
        assert found[key(code)].qualname == code.co_qualname


def test_decorated_definition_starts_at_its_first_decorator(reach, toy):
    found = reach.definitions(TOY)
    code = toy["decorated"].__wrapped__.__wrapped__.__code__
    definition = found[key(code)]
    assert TOY.splitlines()[definition.first - 1].strip() == "@wrap"
    assert definition.lines == 4


def test_comprehensions_and_class_bodies_are_not_definitions(reach, toy):
    found = reach.definitions(TOY)
    assert {d.qualname for d in found.values()} == {
        "plain", "wrap", "wrap.<locals>.wrapper", "decorated", "Outer.value",
        "Outer.Inner.deep", "Outer.Inner.deep.<locals>.helper", "never",
        "never.<locals>.inside",
    }


def test_nested_definitions_know_their_parent(reach):
    found = {d.qualname: d for d in reach.definitions(TOY).values()}
    assert found["never.<locals>.inside"].parent is found["never"]
    assert found["Outer.Inner.deep.<locals>.helper"].parent is found["Outer.Inner.deep"]
    assert found["Outer.value"].parent is None


def test_unreached_lists_the_outermost_unreached_function(reach, tmp_path, monkeypatch):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "toy.py").write_text(TOY)
    monkeypatch.setattr(reach, "REPO", str(tmp_path))
    found = reach.definitions(TOY)
    ran = [("src/repro/toy.py",) + k for k, d in found.items() if d.qualname in ("plain", "wrap")]
    missed, hit = reach.unreached(ran)
    assert hit == 2
    assert "src/repro/toy.py:never" in missed
    assert "src/repro/toy.py:never.<locals>.inside" not in missed  # counted with never
    assert "src/repro/toy.py:wrap.<locals>.wrapper" in missed

