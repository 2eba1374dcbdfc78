"""In-memory spans around the pipeline's layers, recorded from outside.

`Tracer` replaces each public function the pipeline calls, at the name the
pipeline looks it up under, with a wrapper that records one span: its
name, start, end and parent.  Work counters (Jordan-Wigner terms, groups,
fragments, BFGS runs, iterations and cost evaluations) are attached to the
span that does the work.  No source file of the program is changed, and
`remove()` restores every original function.

Spans are recorded only inside a root span that the benchmark opens, so
the checks that run between passes leave no spans.
"""

import time
from contextlib import contextmanager

from lcunorm import optimize, pipeline

# span name -> name of the function in lcunorm.pipeline's namespace
LAYERS = {
    "load": "load_fcidump",
    "to_chemist": "to_chemist",
    "shift": "optimize_shift",
    "split": "split_interaction",
    "jw": "jordan_wigner",
    "closed_form": "lambda_pauli_closed_form",
    "ac": "sorted_insertion",
    "oo": "oo_pauli",
    "df": "double_factorize",
    "csa": "csa_greedy",
    "sr_cost": "lambda_sqrt_fragment",
    "de2": "spectral_range",
    "run_pipeline": "run_pipeline",
    "emit_table": "emit_table",
}

# counters taken from a layer's return value
_RESULT_COUNTS = {
    "jw": ("terms", len),
    "ac": ("groups", lambda part: len(part.groups)),
    "csa": ("fragments", len),
}

# spans that run BFGS; lcunorm.optimize.minimize charges its counts to the
# innermost open one
_OPTIMIZING = ("split", "oo", "csa")

# layers whose results the cache holds: a warm pass that hits every entry
# calls none of them
COMPUTE_LAYERS = ("split", "jw", "closed_form", "ac", "oo", "df", "csa", "sr_cost", "de2")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def install(self):
        for name, attr in LAYERS.items():
            fn = getattr(pipeline, attr)
            self._saved.append((pipeline, attr, fn))
            setattr(pipeline, attr, self._wrap(name, fn))
        self._saved.append((optimize, "minimize", optimize.minimize))
        optimize.minimize = self._wrap_minimize(optimize.minimize)

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextmanager
    def root(self, name):
        """Open a top-level span; layer calls are recorded only inside one."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name):
        parent = self._stack[-1]["id"] if self._stack else None
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        counter = _RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter:
                span["counts"][counter[0]] = counter[1](out)
            return out

        return traced

    def _wrap_minimize(self, fn):
        def traced(f, x0, cfg=None, jac=False):
            owner = next(
                (s for s in reversed(self._stack) if s["name"] in _OPTIMIZING), None
            )
            if owner is None:
                return fn(f, x0, cfg, jac)
            counts = owner["counts"]

            def counted(x):
                counts["cost_evals"] = counts.get("cost_evals", 0) + 1
                return f(x)

            out = fn(counted, x0, cfg, jac)
            counts["bfgs_runs"] = counts.get("bfgs_runs", 0) + 1
            counts["bfgs_iters"] = counts.get("bfgs_iters", 0) + out[2]
            return out

        return traced


def self_seconds(spans):
    """Each span's duration minus the time its direct children cover (the
    children of a span run one after another, so their durations add)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def below_roots(spans):
    """{root span id: ids of the spans below it} (parents precede children)."""
    root_of, below = {}, {}
    for s in spans:
        if s["parent"] is None:
            root_of[s["id"]] = s["id"]
            below[s["id"]] = []
        else:
            root = root_of[s["parent"]]
            root_of[s["id"]] = root
            below[root].append(s["id"])
    return below


# per-layer metric -> span names whose self seconds it sums
SELF_SECONDS = {
    "tensors.load_s": ("load", "to_chemist"),
    "symshift.shift_s": ("shift",),
    "picture.split_s": ("split",),
    "pauli.jw_s": ("jw",),
    "pauli.closed_form_s": ("closed_form",),
    "grouping.ac_s": ("ac",),
    "optimize.oo_s": ("oo",),
    "fragments.csa_s": ("csa",),
    "fragments.df_s": ("df",),
    "fragments.sr_cost_s": ("sr_cost",),
    "spectra.de2_s": ("de2",),
    "pipeline.self_s": ("run_pipeline", "emit_table"),
}

# per-layer metric -> (span name, counter); the counter "calls" is the
# number of spans
COUNTS = {
    "picture.split_bfgs_iters": ("split", "bfgs_iters"),
    "picture.split_cost_evals": ("split", "cost_evals"),
    "pauli.jw_calls": ("jw", "calls"),
    "pauli.jw_terms": ("jw", "terms"),
    "grouping.ac_groups": ("ac", "groups"),
    "optimize.oo_bfgs_runs": ("oo", "bfgs_runs"),
    "optimize.oo_bfgs_iters": ("oo", "bfgs_iters"),
    "optimize.oo_cost_evals": ("oo", "cost_evals"),
    "fragments.csa_fragments": ("csa", "fragments"),
    "fragments.csa_bfgs_runs": ("csa", "bfgs_runs"),
    "fragments.csa_cost_evals": ("csa", "cost_evals"),
}


def pass_metrics(spans, ids, own):
    """Per-layer self seconds and work counts of the spans `ids` of one pass;
    `own` holds every span's self seconds."""
    out = {}
    for metric, names in SELF_SECONDS.items():
        out[metric] = sum(own[i] for i in ids if spans[i]["name"] in names)
    for metric, (name, key) in COUNTS.items():
        out[metric] = sum(
            1 if key == "calls" else spans[i]["counts"].get(key, 0)
            for i in ids
            if spans[i]["name"] == name
        )
    frags = out["fragments.csa_fragments"]
    out["fragments.csa_runs_per_fragment"] = (
        out["fragments.csa_bfgs_runs"] / frags if frags else 0.0
    )
    return out


def compute_calls(spans, ids):
    """Calls into the cached compute layers among the spans `ids`."""
    return sum(1 for i in ids if spans[i]["name"] in COMPUTE_LAYERS)
