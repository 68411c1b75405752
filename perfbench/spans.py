"""Spans around the program's layers, recorded from outside the package.

`Tracer.install()` replaces the public functions and methods of each module
of `aucasimir` (and every other reference the package holds to them) with
wrappers that record a span: name, start, end and parent.  Nothing under
`src/` is edited.  Two boundaries get special wrappers:

* `quadrature.quad` is `scipy.integrate.quad`, the call every
  `checked_quad` makes into QUADPACK.  It reports the integrand evaluations
  QUADPACK counts and whether QUADPACK flagged the result.  Its self time
  covers QUADPACK and the integrand closures it evaluates (they are private
  to their modules), less the wrapped functions those closures call.
* `dielectric.eps` is the eps(i zeta) callable `RunConfig.build_evaluator`
  hands to `lifshitz`.  It passes its argument through unchanged and counts
  the zeta values in it (array elements when it is an array).

Hot spans (`interpolate_eps2` and `quad`, up to hundreds of thousands of
calls per run) are aggregated per parent span to keep memory bounded.
A layer's self time is its spans' durations minus the time their child
spans cover.  A boundary that a later version of the program no longer has
is listed in `absent` and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import warnings
from collections import defaultdict

LAYERS = ("cli", "config", "optical", "dielectric", "lifshitz", "analysis", "yukawa")

# boundaries the per-layer metrics read
EXPECTED = (
    "cli.main", "config.load_run_config", "config.RunConfig.build_evaluator",
    "optical.load_dataset", "optical.interpolate_eps2",
    "dielectric.DielectricModel.decompose", "dielectric.DrudeParameters.epsilon",
    "lifshitz.force_finite_T", "lifshitz.force_zero_T",
    "analysis.load_experiment", "analysis.residual_report", "analysis.residual_lower_bound",
    "yukawa.alpha_lower_limit", "yukawa.allowed_lambda_boundary", "yukawa.yukawa_force_oracle",
)
HOT = frozenset({"optical.interpolate_eps2", "quadrature.quad"})

# eps(i zeta) entry points and the position of zeta in their arguments; a
# call is counted once, at the outermost of them
EPS_ENTRIES = {"dielectric.eps": 0, "dielectric.DielectricModel.decompose": 1,
               "dielectric.DrudeParameters.epsilon": 1}

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.t0 = _clock()
        self.stack: list[list] = []        # open spans, see _enter
        self.spans: list[list] = []        # [name, parent_index, start, end]
        self.hot: dict = defaultdict(lambda: [0, 0.0])     # (parent_index, name) -> n, s
        self.calls: dict = defaultdict(int)
        self.incl: dict = defaultdict(float)     # outermost spans of a name
        self.self_s: dict = defaultdict(float)
        self.layer_self: dict = defaultdict(float)
        self.layer_incl: dict = defaultdict(float)
        self._active: dict = defaultdict(int)    # open spans per name and per layer
        self.absent: list[str] = []
        self.eps_calls = 0
        self.eps_zetas: set = set()
        self.eps_s = 0.0
        self.matsubara_terms = 0
        self.residual_rows = 0
        self.quad_neval = 0
        self.quad_flagged = 0

    # ------------------------------------------------------------ spans
    def _enter(self, name: str, layer: str, hot: bool) -> list:
        stack = self.stack
        parent = stack[-1][4] if stack else -1
        start = _clock()
        if hot:
            index = parent
        else:
            index = len(self.spans)
            self.spans.append([name, parent, start - self.t0, None])
        frame = [name, layer, start, 0.0, index, parent, hot]
        stack.append(frame)
        self._active[name] += 1
        self._active[layer] += 1
        return frame

    def _exit(self, frame: list) -> float:
        end = _clock()
        name, layer, start, child_s, index, parent, hot = frame
        dur = end - start
        self.stack.pop()
        if self.stack:
            self.stack[-1][3] += dur
        active = self._active
        active[name] -= 1
        active[layer] -= 1
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        self.layer_self[layer] += dur - child_s
        if not active[name]:
            self.incl[name] += dur
        if not active[layer]:
            self.layer_incl[layer] += dur
        if hot:
            agg = self.hot[(parent, name)]
            agg[0] += 1
            agg[1] += dur
        else:
            self.spans[index][3] = end - self.t0
        return dur

    def wrap(self, fn, name: str, on_return=None):
        layer = name.partition(".")[0]
        hot = name in HOT
        eps_pos = EPS_ENTRIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_eps = eps_pos is not None and not any(
                f[0] in EPS_ENTRIES for f in self.stack)
            if outer_eps:
                self._count_eps(args[eps_pos] if len(args) > eps_pos else None)
            frame = self._enter(name, layer, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._exit(frame)
            if outer_eps:
                self.eps_s += dur
            return on_return(result) if on_return is not None else result

        return wrapper

    def _count_eps(self, zeta):
        if hasattr(zeta, "ravel"):             # numpy array (or scalar) of zeta values
            values = zeta.ravel().tolist()
        elif isinstance(zeta, (list, tuple)):
            values = list(zeta)
        else:
            values = [zeta]
        self.eps_calls += len(values)
        self.eps_zetas.update(values)

    # ------------------------------------------------------------ install
    def install(self) -> None:
        """Wrap every public function of the package's layer modules."""
        replaced: dict = {}
        installed: set = set()
        for short in LAYERS:
            try:
                mod = importlib.import_module(f"aucasimir.{short}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    replaced[obj] = self.wrap(obj, name, self._return_hook(name))
                    setattr(mod, attr, replaced[obj])
                    installed.add(name)
                elif inspect.isclass(obj):
                    installed.update(self._wrap_methods(obj, f"{short}.{attr}"))
        # `from .x import f` copies: point every package reference at the wrapper
        for name, mod in list(sys.modules.items()):
            if name == "aucasimir" or name.startswith("aucasimir."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(mod, attr, replaced[obj])
        self._install_quad()
        self.absent = [name for name in EXPECTED if name not in installed]

    def _wrap_methods(self, cls, prefix: str) -> list[str]:
        names = []
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            name = f"{prefix}.{attr}"
            setattr(cls, attr, self.wrap(obj, name, self._return_hook(name)))
            names.append(name)
        return names

    def _return_hook(self, name: str):
        if name == "config.RunConfig.build_evaluator":
            return self._wrap_evaluator
        if name == "lifshitz.force_finite_T":
            return self._count_terms
        if name == "analysis.residual_report":
            return self._count_rows
        return None

    def _wrap_evaluator(self, result):
        if isinstance(result, tuple) and result and callable(result[0]):
            return (self.wrap(result[0], "dielectric.eps"),) + result[1:]
        return result

    def _count_terms(self, result):
        self.matsubara_terms += int(getattr(result, "n_terms_used", 0))
        return result

    def _count_rows(self, result):
        self.residual_rows += len(getattr(result, "rows", ()))
        return result

    def _install_quad(self) -> None:
        from scipy import integrate
        original = integrate.quad

        @functools.wraps(original)
        def quad(func, a, b, *args, **kwargs):
            counted = not args     # with positional options, time only
            full = kwargs.get("full_output", 0)
            if counted:
                kwargs["full_output"] = 1
            frame = self._enter("quadrature.quad", "quadrature", True)
            try:
                out = original(func, a, b, *args, **kwargs)
            finally:
                self._exit(frame)
            if not counted:
                return out
            self.quad_neval += int(out[2].get("neval", 0))
            flagged = len(out) > 3     # QUADPACK added a message
            self.quad_flagged += flagged
            if full:
                return out
            if flagged:
                warnings.warn(str(out[3]), integrate.IntegrationWarning, stacklevel=2)
            return out[:2]

        integrate.quad = quad

    # ------------------------------------------------------------ output
    def metrics(self) -> dict:
        """Per-layer metric values of this traced process (see README.md)."""
        finite, zero = self.calls["lifshitz.force_finite_T"], self.calls["lifshitz.force_zero_T"]
        forces = finite + zero
        return {
            "optical.interpolate_eps2.calls": self.calls["optical.interpolate_eps2"],
            "optical.interpolate_eps2.self_s": self.self_s["optical.interpolate_eps2"],
            "optical.load_dataset.s": self.incl["optical.load_dataset"],
            "config.s": self.layer_incl["config"],
            "dielectric.eps_calls": self.eps_calls,
            "dielectric.eps_unique_ratio":
                len(self.eps_zetas) / self.eps_calls if self.eps_calls else 0.0,
            "dielectric.self_s": self.layer_self["dielectric"],
            "dielectric.s_per_eps": self.eps_s / self.eps_calls if self.eps_calls else 0.0,
            "lifshitz.finite_T.calls": finite,
            "lifshitz.zero_T.calls": zero,
            "lifshitz.matsubara_terms": self.matsubara_terms,
            "lifshitz.self_s": self.layer_self["lifshitz"],
            "lifshitz.s_per_force": self.layer_incl["lifshitz"] / forces if forces else 0.0,
            "quadrature.quad_calls": self.calls["quadrature.quad"],
            "quadrature.neval": self.quad_neval,
            "quadrature.flagged": self.quad_flagged,
            "quadrature.self_s": self.layer_self["quadrature"],
            "analysis.load_experiment.s": self.incl["analysis.load_experiment"],
            "analysis.residual_report.self_s": self.self_s["analysis.residual_report"],
            "analysis.rows": self.residual_rows,
            "yukawa.alpha_lower_limit.calls": self.calls["yukawa.alpha_lower_limit"],
            "yukawa.boundary.s": self.incl["yukawa.allowed_lambda_boundary"],
            "yukawa.oracle.calls": self.calls["yukawa.yukawa_force_oracle"],
            "yukawa.oracle.s": self.incl["yukawa.yukawa_force_oracle"],
            "cli.self_s": self.layer_self["cli"],
        }

    def dump(self, path) -> None:
        """Write the spans kept in memory, hot leaves aggregated per parent span."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"],
                       "spans": self.spans,
                       "hot": [[parent, name, n, s] for (parent, name), (n, s)
                               in self.hot.items()],
                       "absent": self.absent}, fh)
