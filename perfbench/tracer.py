"""Per-layer tracing of zetalab from outside the program.

The tracer wraps the public entry points of each module by rebinding every
module global of the package that refers to the same function object, so a
call through `from .quadrature import integrate` in bessel, regularized,
funceq, zeta_classic or diffusion lands in the wrapper as well.  Nothing under
src/ is edited and nothing is changed on the function objects themselves.

Two kinds of wrapper:

* span entries record a span (id, parent id, name, thread, start, end, job)
  and aggregate calls, evaluations (from a returned EvalResult) and self time;
* hot leaves (power_real_base, psi_raw, ... at ~1e5 calls per job) are only
  counted and timed, and their time is charged to the enclosing span as
  child time.

Each thread keeps its own span stack, so the two grid worker threads of
`--jobs 2` nest correctly.  A span opened on a thread with an empty stack
takes as parent the innermost open span of the thread that installed the
tracer (cli.main while the pool runs), and its interval is subtracted from
that parent's self time as a union, since sibling threads overlap.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from time import perf_counter

def _integrate_regime(args, kwargs):
    domain = args[1] if len(args) > 1 else kwargs["domain"]
    return "half_line" if math.isinf(float(domain[1])) else "finite"


def _order_regime(args, kwargs):
    nu = args[0] if args else kwargs["nu"]
    return "complex_order" if complex(nu).imag != 0.0 else "real_order"


def _height_regime(args, kwargs):
    s = args[0] if args else kwargs["s"]
    return "high_t" if abs(complex(s).imag) > 10.0 else "low_t"


# The regime labels each entry's regime function can return.
REGIMES = {
    "quadrature.integrate": ("finite", "half_line"),
    "bessel.bessel_k": ("real_order", "complex_order"),
    "zeta_classic.zeta_analytic": ("low_t", "high_t"),
}

# (module, attribute, metric name, regime of the call or None)
SPAN_ENTRIES = (
    ("zetalab.cli", "main", "cli.main", None),
    ("zetalab.quadrature", "integrate", "quadrature.integrate", _integrate_regime),
    ("zetalab.bessel", "bessel_k", "bessel.bessel_k", _order_regime),
    ("zetalab.bessel", "bessel_k_complex_arg", "bessel.bessel_k_complex_arg", None),
    ("zetalab.regularized", "_completed_series", "regularized.completed_series", None),
    ("zetalab.regularized", "_completed_quadrature",
     "regularized.completed_quadrature", None),
    ("zetalab.regularized", "omega", "regularized.omega", None),
    ("zetalab.regularized", "xi_lambda", "regularized.xi_lambda", None),
    ("zetalab.regularized", "zeta_exp_bessel_series",
     "regularized.zeta_exp_bessel_series", None),
    ("zetalab.zeta_classic", "zeta_analytic", "zeta_classic.zeta_analytic",
     _height_regime),
    ("zetalab.zeta_classic", "hardy_z", "zeta_classic.hardy_z", None),
    ("zetalab.funceq", "verify", "funceq.verify", None),
    ("zetalab.diffusion", "resolvent_rd_bessel", "diffusion.resolvent_rd_bessel", None),
    ("zetalab.diffusion", "resolvent_rd_quad", "diffusion.resolvent_rd_quad", None),
    ("zetalab.diffusion", "laplace_hyperbolic", "diffusion.laplace_hyperbolic", None),
    ("zetalab.cache", "get_or_compute", "cache.get_or_compute", None),
)

LEAF_ENTRIES = (
    ("zetalab.gammafn", "power_real_base", "gammafn.power_real_base"),
    ("zetalab.gammafn", "rgamma", "gammafn.rgamma"),
    ("zetalab.gammafn", "gamma_complex", "gammafn.gamma_complex"),
    ("zetalab.gammafn", "log_gamma_complex", "gammafn.log_gamma_complex"),
    ("zetalab.theta", "_psi_raw", "theta.psi_raw"),
    ("zetalab.cutoffs", "cutoff_value", "cutoffs.cutoff_value"),
    ("zetalab.records", "dumps_record", "records.dumps_record"),
    ("zetalab.records", "csv_text", "records.csv_text"),
    ("zetalab.records", "loads_record", "records.loads_record"),
)

_BESSEL = ("bessel.bessel_k", "bessel.bessel_k_complex_arg")


def metric_keys() -> list[str]:
    """Every aggregate key a trace can hold, whether or not a run fills it."""
    names = [e[2] for e in SPAN_ENTRIES] + [e[2] for e in LEAF_ENTRIES]
    return [f"{n}.{r}" if n in REGIMES else n
            for n in names for r in REGIMES.get(n, (None,))]


class _Frame:
    __slots__ = ("id", "name", "start", "child", "cross", "bessel_calls")

    def __init__(self, span_id, name, start):
        self.id = span_id
        self.name = name
        self.start = start
        self.child = 0.0        # time of same-thread children, which never overlap
        self.cross = []         # (start, end) of children on other threads
        self.bessel_calls = 0


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        # metric key -> [calls, evals, self_s]
        self.agg: dict[str, list] = {}
        self.terms = 0            # Bessel calls made directly by completed_series
        self.nonconverged = 0
        self.hits = 0
        self.misses = 0


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Install with install(), run jobs, then uninstall() and read results."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._owner: _ThreadState | None = None
        self._saved: list[tuple] = []
        self.job = -1

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            self._states.append(st)
            return st

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name, regime):
        tracer = self
        nonconvergence = sys.modules["zetalab.errors"].NonConvergence

        def traced(*args, **kwargs):
            st = tracer._state()
            key = name if regime is None else f"{name}.{regime(args, kwargs)}"
            stack = st.stack
            parent = stack[-1] if stack else None
            cross_parent = None
            if parent is None and st is not tracer._owner and tracer._owner.stack:
                cross_parent = tracer._owner.stack[-1]
            frame = _Frame(next(tracer._ids), key, perf_counter())
            stack.append(frame)
            evals = 0
            try:
                result = fn(*args, **kwargs)
                ev = getattr(result, "evaluations", None)
                if ev is None:
                    ev = getattr(getattr(result, "completed", None), "evaluations", 0)
                evals = ev
                if name == "quadrature.integrate" and not result.converged:
                    st.nonconverged += 1
                return result
            except nonconvergence:
                if name == "quadrature.integrate":
                    st.nonconverged += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame.start
                cover = frame.child + _union_length(frame.cross)
                rec = st.agg.get(key)
                if rec is None:
                    rec = st.agg[key] = [0, 0, 0.0]
                rec[0] += 1
                rec[1] += evals
                rec[2] += max(0.0, dur - cover)
                if name == "regularized.completed_series":
                    st.terms += frame.bessel_calls
                if parent is not None:
                    parent.child += dur
                    if name in _BESSEL:
                        parent.bessel_calls += 1
                    pid = parent.id
                elif cross_parent is not None:
                    cross_parent.cross.append((frame.start, end))
                    pid = cross_parent.id
                else:
                    pid = 0
                st.spans.append((frame.id, pid, key, threading.get_ident(),
                                 frame.start, end, tracer.job))

        return traced

    def _leaf_wrapper(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec = st.agg.get(name)
                if rec is None:
                    rec = st.agg[name] = [0, 0, 0.0]
                rec[0] += 1
                rec[2] += dt
                if st.stack:
                    st.stack[-1].child += dt

        return traced

    def _cache_wrapper(self, traced_get):
        tracer = self

        def get_or_compute(cache_dir, key, compute):
            computed = []

            def counted():
                computed.append(True)
                return compute()

            result = traced_get(cache_dir, key, counted)
            st = tracer._state()
            if computed:
                st.misses += 1
            else:
                st.hits += 1
            return result

        return get_or_compute

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        self._owner = self._state()
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "zetalab" or n.startswith("zetalab.")) and m is not None]
        plan = []
        for mod_name, attr, name, regime in SPAN_ENTRIES:
            fn = getattr(sys.modules[mod_name], attr)
            wrapper = self._span_wrapper(fn, name, regime)
            if name == "cache.get_or_compute":
                wrapper = self._cache_wrapper(wrapper)
            plan.append((fn, wrapper))
        for mod_name, attr, name in LEAF_ENTRIES:
            fn = getattr(sys.modules[mod_name], attr)
            plan.append((fn, self._leaf_wrapper(fn, name)))
        for fn, wrapper in plan:
            for mod in modules:
                for gname, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, gname, wrapper)
                        self._saved.append((mod, gname, fn))

    def uninstall(self) -> None:
        for mod, gname, fn in reversed(self._saved):
            setattr(mod, gname, fn)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def spans(self) -> list[tuple]:
        return [s for st in self._states for s in st.spans]

    def totals(self) -> dict:
        """Aggregates merged over threads: {key: [calls, evals, self_s]} plus
        the scalar counters under their own names."""
        agg: dict[str, list] = {}
        for st in self._states:
            for key, (calls, evals, self_s) in st.agg.items():
                rec = agg.setdefault(key, [0, 0, 0.0])
                rec[0] += calls
                rec[1] += evals
                rec[2] += self_s
        scalars = {
            "regularized.completed_series.bessel_calls": sum(s.terms for s in self._states),
            "quadrature.integrate.nonconverged": sum(s.nonconverged for s in self._states),
            "cache.hits": sum(s.hits for s in self._states),
            "cache.misses": sum(s.misses for s in self._states),
        }
        return {"agg": agg, "scalars": scalars}
