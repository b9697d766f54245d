"""The prfmap names that the benchmark imports and patches exist.

``perfbench/`` wraps prfmap functions and methods by name from outside the
package, so renaming or deleting one breaks every traced benchmark run.
Entering the tracer looks up every patched name; this takes well under a
second, where the benchmark's own smoke tests take minutes.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_imports_and_patches_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run  # noqa: F401  (imports every prfmap name the benchmark calls)
    from layers import baseline_patches, chain_patches, sim_patches
    from tracer import Tracer

    patches = chain_patches() + baseline_patches() + sim_patches()

    def current(p):
        return p.owner.__dict__[p.attr] if isinstance(p.owner, type) \
            else getattr(p.owner, p.attr)

    before = [current(p) for p in patches]
    with Tracer(patches):
        assert all(current(p) is not orig for p, orig in zip(patches, before))
    assert all(current(p) is orig for p, orig in zip(patches, before))
