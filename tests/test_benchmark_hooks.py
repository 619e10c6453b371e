"""The benchmark's traced run wraps ``l1gp`` functions by attribute name.

``perfbench/layers.py`` lists each hook as ``owner.attr``; a refactor that
turns one into a method of another class, a property or a bound closure
breaks the traced run without any other test failing. This reads the hook
list from that file, without changing it, and checks every target.
"""

import importlib.util
import inspect
import os
import sys

import l1gp
import l1gp.cli  # noqa: F401  (the hooks reach l1gp.cli and l1gp.config)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_each_hook_target_is_a_plain_function_of_its_owner(monkeypatch):
    # layers.py imports its sibling module spans by plain name
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(PERFBENCH, "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    hooks = layers.hooks(l1gp)
    assert hooks
    for hook in hooks:
        target = vars(hook.owner).get(hook.attr)
        assert inspect.isfunction(target), f"{hook.name}: {hook.owner!r}.{hook.attr}"
