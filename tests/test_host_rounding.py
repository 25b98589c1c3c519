"""The calls through which recorded floats depend on the host's libm or BLAS.

IEEE 754 rounds + - * / and sqrt correctly, so their results are the same on
every host. libm's exp, log, cos, acos, log2 and pow, numpy's SIMD exp and
log, and LAPACK need not be correctly rounded, and glibc, musl, macOS and
BLAS builds can differ in the last bit. The test walks the syntax tree of each
module under ``src/hbvkit`` and of the generated run kernels and rhs closures
(their text read back with ``inspect.getsource``), collects every ``math``,
``cmath`` and ``numpy`` call, every builtin ``pow`` and every ``**``, and
sorts each into one of two committed lists: ``HOST_DEPENDENT``, which README
names, or the exact ones (``EXACT_CALLS``, ``EXACT_POWERS``). A new site in
neither list fails the test until it is placed in one.
"""

import ast
import inspect
import itertools
from collections import Counter
from pathlib import Path

from hbvkit.integrate import _kernel, _METHODS
from hbvkit.model import _PRODUCTION, _rhs_factory

SRC = Path(__file__).resolve().parent.parent / "src" / "hbvkit"

# Calls whose result is exact or correctly rounded on every host.
EXACT_CALLS = {
    "math.sqrt", "math.isfinite", "math.isnan", "math.copysign", "math.nextafter", "math.floor", "math.ulp",
    "cmath.isfinite",
    # numpy builds arrays, and np.sum adds in its own fixed pairwise order
    "numpy.array", "numpy.asarray", "numpy.sum", "numpy.random.default_rng",
}
# (source, function, expression) -> count of each exact ``**``: an ndarray
# to the power 2, which numpy squares with one IEEE multiply per element, and
# a power of two that a double holds.
EXACT_POWERS = Counter({
    ("equilibria", "_polish", "0.5 ** k"): 1,
    ("stability", "_fit_log_decay", "(logv - fitted) ** 2"): 1,
    ("stability", "_fit_log_decay", "(logv - logv.mean()) ** 2"): 1,
    ("stability", "lyapunov_fit", "(traj.states - ref) ** 2"): 1,
    ("stability", "contraction_fit", "(s1 - s2) ** 2"): 1,
})
# (source, function, call or expression) -> how many times it appears.
HOST_DEPENDENT = Counter({
    # the sweep's log-uniform draws
    ("scenarios", "_draw_params", "math.exp"): 1,
    ("scenarios", "_draw_params", "math.log"): 2,
    # the sinusoid production rate: its __call__, the rhs closure and the kernels
    ("model", "SinusoidForcing.__call__", "math.cos"): 1,
    ("sinusoid_rhs", "sinusoid_rhs.rhs", "cos"): 1,
    ("_rk4_sinusoid", "_rk4_sinusoid", "cos"): 3,
    ("_dp5_sinusoid", "_dp5_sinusoid", "cos"): 6,
    # the characteristic cubic's closed-form roots, polished afterwards
    ("stability", "_cubic_roots", "math.acos"): 1,
    ("stability", "_cubic_roots", "math.cos"): 1,
    ("stability", "_cubic_roots", "abs(c0) ** (1.0 / 3.0)"): 1,
    ("stability", "_cubic_roots", "abs(u_cubed) ** (1.0 / 3.0)"): 1,
    ("stability", "_cubic_roots", "a ** 3"): 1,
    ("stability", "_cubic_roots", "p ** 3"): 1,
    ("integrate", "richardson_order", "math.log2"): 1,
    # the float square of Hermite dense output is libm pow
    ("integrate", "Trajectory.sample", "(1 - s) ** 2"): 2,
    # the fits and the endemic polish: numpy's exp and log, and LAPACK
    ("stability", "_fit_log_decay", "np.log"): 1,
    ("stability", "_fit_log_decay", "np.polyfit"): 1,
    ("stability", "contraction_fit", "np.exp"): 1,
    ("equilibria", "_polish", "np.linalg.solve"): 1,
    # the DP5 step controller in each of the four adaptive kernels
    **{
        (f"_dp5_{stages}", f"_dp5_{stages}", power): 1
        for stages in ("call", *_PRODUCTION)
        for power in ("err_norm ** (-0.2)", "err_norm ** (-expo)", "err_prev ** beta_stab")
    },
})


def _module_names(tree: ast.Module) -> dict[str, str]:
    """The dotted name each import in a module binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                names[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _namespace_names(namespace: dict) -> dict[str, str]:
    """The dotted name of each math function a generated function's globals bind."""
    return {
        name: f"{obj.__module__}.{obj.__name__}"
        for name, obj in namespace.items()
        if getattr(obj, "__module__", None) in ("math", "cmath")
    }


def _dotted(node: ast.expr, names: dict[str, str]) -> str | None:
    """The dotted name a callee resolves to, or None for a local or a method."""
    if isinstance(node, ast.Name):
        return names.get(node.id, "builtins.pow" if node.id == "pow" else None)
    if isinstance(node, ast.Attribute):
        root = _dotted(node.value, names)
        return None if root is None else f"{root}.{node.attr}"
    return None


def _sites(source: str, names: dict[str, str]):
    """(function, expression, resolved callee or None for ``**``) of each call
    into math, cmath, numpy or ``pow``, and of each ``**``, in ``source``."""

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            callee = _dotted(node.func, names)
            if callee and callee.split(".")[0] in ("math", "cmath", "numpy", "builtins"):
                yield ".".join(scope), ast.unparse(node.func), callee
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            yield ".".join(scope), ast.unparse(node), None
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            yield ".".join(scope), ast.unparse(node), None
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)

    yield from walk(ast.parse(source), ())


def _sources():
    """(name, source, names) of each module and each generated function."""
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        yield path.stem, source, _module_names(ast.parse(source))
    generated = [_kernel(mode, stages) for mode, stages in itertools.product(_METHODS, ("call", *_PRODUCTION))]
    for function in generated + [_rhs_factory(kind) for kind in _PRODUCTION]:
        yield function.__name__, inspect.getsource(function), _namespace_names(function.__globals__)


def _inventory():
    """The sites that are not exact, and the ``**`` sites classed exact."""
    host, powers = Counter(), Counter()
    for name, source, names in _sources():
        for function, text, callee in _sites(source, names):
            key = (name, function, text)
            if callee is None:
                powers[key] += 1
            elif callee not in EXACT_CALLS:
                host[key] += 1
    exact_powers = Counter({key: n for key, n in powers.items() if key in EXACT_POWERS})
    return host + (powers - exact_powers), exact_powers


def test_the_host_dependent_calls_are_the_committed_list():
    host, exact_powers = _inventory()
    assert host == HOST_DEPENDENT
    assert exact_powers == EXACT_POWERS


def test_a_new_libm_call_or_float_power_is_found():
    names = {"math": "math", "np": "numpy"}
    source = "def f(x):\n    return math.exp(x) + x ** 0.5 + math.sqrt(x) + np.array(x) + pow(x, 2) + min(x, 1)\n"
    found = {(text, callee) for _, text, callee in _sites(source, names)}
    assert found == {
        ("math.exp", "math.exp"), ("x ** 0.5", None), ("math.sqrt", "math.sqrt"),
        ("np.array", "numpy.array"), ("pow", "builtins.pow"),
    }
