"""What the tracer wraps, and how it charges time to layers."""

import types

import tracing

SOURCE = '''
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Box:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative")

    @staticmethod
    def build(n):
        return Box(n)

    @cached_property
    def items(self):
        return tuple(range(self.n))

    @property
    def size(self):
        return self.n

    def degree(self, v):
        return 0

    def grown(self):
        return Box(self.n + 1)


def make(n):
    box = Box.build(n)
    return box.grown().items, box.size, box.degree(0)
'''


def _layer():
    mod = types.ModuleType("toy.shapes")
    exec(compile(SOURCE, "toy/shapes.py", "exec"), mod.__dict__)
    return mod


def test_methods_are_charged_to_their_layer():
    mod = _layer()
    tracer = tracing.Tracer(types.ModuleType("toy"), {"shapes": mod})
    tracer.install()
    tracer.current_op = 0
    assert mod.make(3) == ((0, 1, 2, 3), 3, 0)
    tracer.end_op(0.0)
    called = sorted(tracer.names[tracer.name[i]] for i in range(len(tracer.start)))
    assert called == [
        "shapes.Box.__post_init__",
        "shapes.Box.__post_init__",
        "shapes.Box.build",
        "shapes.Box.grown",
        "shapes.Box.items",
        "shapes.make",
    ]
    # a span's parent is the innermost span open when it began
    parent_of = {tracer.names[tracer.name[i]]: tracer.parent[i] for i in range(len(tracer.start))}
    assert tracer.names[tracer.name[parent_of["shapes.Box.build"]]] == "shapes.make"
    assert parent_of["shapes.make"] == -1
    metrics = tracer.layer_metrics(len(tracer.start), 1, 1.0)
    assert metrics["shapes.self_s"][0] > 0 and metrics["bench.self_s"][0] > 0.9
