"""Per-layer spans recorded around the public functions of ampmech.

The program itself records nothing. `Tracer.install` replaces every public
function of `ampmech.core`, `perturb`, `classical` and `oracle`, and the two
renderers of `ampmech.cli`, with a wrapper that opens a span, in every
`ampmech` module namespace that binds it, so calls made through
`from .core import ...` bindings are seen too. A span's layer is the module
that defines the function. A layer's self time is the sum over its spans of
the span's duration minus the durations of its direct child spans.
"""

import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("core", "perturb", "classical", "oracle")
RENDERERS = ("render_json", "render_csv")


class Tracer:
    def __init__(self):
        self.seconds = Counter()  # "<fn>.ms" (outermost calls) and "<layer>.self_ms"
        self.counts = Counter()  # calls, rows, op counts, errors, bytes
        self.get_calls = 0
        self._stack = []  # open spans: [layer, seconds spent in child spans]
        self._depth = Counter()  # open calls per key, for outermost-only times
        self._restore = []  # (namespace, name, original)

    # -- spans ---------------------------------------------------------------

    def call(self, layer, key, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `key` of `layer`."""
        stack = self._stack
        frame = [layer, 0.0]
        stack.append(frame)
        depth = self._depth[key]
        self._depth[key] = depth + 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            # an exception counts once, in the layer it leaves
            if len(stack) < 2 or stack[-2][0] != layer:
                self.counts[f"{layer}.errors"] += 1
            raise
        finally:
            elapsed = perf_counter() - t0
            stack.pop()
            self._depth[key] = depth
            self.seconds[f"{layer}.self_ms"] += elapsed - frame[1]
            if depth == 0:
                self.seconds[f"{key}.ms"] += elapsed
            self.counts[f"{key}.calls"] += 1
            if stack:
                stack[-1][1] += elapsed

    def _wrap(self, layer, key, fn):
        hook = _HOOKS.get(key)

        def wrapper(*args, **kwargs):
            result = self.call(layer, key, fn, *args, **kwargs)
            return hook(self, result) if hook else result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import ampmech.cli
        from ampmech.core import BandAmplitudeArray

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"ampmech.{layer}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(layer, f"{layer}.{name}", obj)
        for name in RENDERERS:
            wrappers[getattr(ampmech.cli, name)] = self._wrap(
                "cli", "cli.render", getattr(ampmech.cli, name))

        for module_name, module in list(sys.modules.items()):
            if module_name != "ampmech" and not module_name.startswith("ampmech."):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((namespace, name, obj))
                    namespace[name] = wrappers[obj]

        get = BandAmplitudeArray.get

        def counted_get(array, n, m):
            self.get_calls += 1
            return get(array, n, m)

        self._restore.append((BandAmplitudeArray, "get", get))
        BandAmplitudeArray.get = counted_get

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._restore.clear()

    def snapshot(self) -> dict:
        """Every count recorded so far; counts repeat exactly per cycle."""
        counts = dict(self.counts)
        counts["core.get.calls"] = self.get_calls
        return counts


# -- per-function hooks: counts taken from results ------------------------------


def _qc_rows(tracer, result):
    tracer.counts["core.quantum_condition_residual.rows"] += len(result)
    return result


def _solve_rows(tracer, result):
    tracer.counts["perturb.public_rows"] += result.n_max + 1
    tracer.counts["perturb.engine_rows"] += result.coeffs.rows
    return result


def _basis_cubed(tracer, result):
    tracer.counts["oracle.diagonalize.basis_cubed"] += result.basis_size**3
    return result


def _timed_recursion(tracer, residual):
    def timed(*a, **kw):
        return tracer.call("perturb", "perturb.recursion_residual", residual, *a, **kw)

    return timed


_HOOKS = {
    "core.quantum_condition_residual": _qc_rows,
    "perturb.solve_perturbative": _solve_rows,
    "oracle.diagonalize": _basis_cubed,
    "perturb.build_recursions": _timed_recursion,
}
