import os
import pathlib

import hypothesis

# pyproject's `pythonpath = ["src"]` reaches this interpreter only; child
# interpreters started by the CLI tests find the package through this.
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# Quadrature-backed properties are orders of magnitude slower than pure
# arithmetic; a wall-clock deadline would just make them flaky.
hypothesis.settings.register_profile(
    "numerics", deadline=None, max_examples=60,
    derandomize=True,
)
hypothesis.settings.load_profile("numerics")
