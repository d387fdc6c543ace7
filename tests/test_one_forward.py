"""The package's public surface: one forward per stage, and an ``__all__``
whose every name resolves.

Each differentiable stage has exactly one forward, ``foo_forward`` ->
(output, cache), next to its ``foo_backward``. A plain ``foo`` that only
returns ``foo_forward(...)[0]`` is a second forward to keep in step, so no
module may define both names. ``atconv_forward`` is the one exception: it
is the whole operator's output-only entry point.
"""

import importlib
import pkgutil

import atconv

ALLOWED = {"atconv_forward"}


def _modules():
    for info in pkgutil.iter_modules(atconv.__path__):
        yield importlib.import_module(f"atconv.{info.name}")


def test_no_module_defines_both_foo_and_foo_forward():
    twins = []
    for mod in _modules():
        defined = {name for name, value in vars(mod).items()
                   if callable(value) and getattr(value, "__module__", None) == mod.__name__}
        for name in defined:
            if name + "_forward" in defined and name not in ALLOWED:
                twins.append(f"{mod.__name__}.{name}")
    assert not twins, f"plain forwards next to a *_forward: {sorted(twins)}"


def test_every_name_in_all_resolves():
    missing = [name for name in atconv.__all__ if not hasattr(atconv, name)]
    assert not missing
    assert len(set(atconv.__all__)) == len(atconv.__all__)
