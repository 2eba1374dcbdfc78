"""Shared fixtures: session-scoped pipeline results computed by this code.

The acceptance sweep runs every method on every fixture molecule in three
variants (raw, shifted, residual).  The session computes each report once,
cold, into a cache directory that lives for the whole session, so the
tests that rebuild a decomposition read its intermediates (orbital
rotation, CSA fragments, split) from there.  With $LCUNORM_CACHE_DIR set,
that directory is used instead and a rerun of the same code reads it warm.
"""

import os
import time

import pytest

_VARIANTS = {
    "raw": {},
    "shifted": {"shift": True},
    "residual": {"picture": "interaction"},
}


class PipelineRunner:
    """Memoized access to full per-molecule reports and timings."""

    def __init__(self, cache_dir):
        self.cache_dir = cache_dir
        self._memo = {}
        self.elapsed = {}

    def report(self, molecule, variant):
        from lcunorm.pipeline import run_pipeline

        key = (molecule, variant)
        if key not in self._memo:
            start = time.time()
            r = run_pipeline(molecule, **_VARIANTS[variant], cache_dir=self.cache_dir)
            self.elapsed[key] = time.time() - start
            self._memo[key] = r
        return self._memo[key]

    def entry(self, molecule, variant, method):
        return self.report(molecule, variant).methods[method]

    def prepared(self, molecule, variant):
        """The tensors (and split) that the variant's report decomposes."""
        from lcunorm.pipeline import prepare

        key = ("prepared", molecule, variant)
        if key not in self._memo:
            self.report(molecule, variant)  # put the intermediates in the cache
            self._memo[key] = prepare(
                molecule, **_VARIANTS[variant], cache_dir=self.cache_dir
            )
        return self._memo[key]

    def engine(self, molecule, variant):
        """Method engine that serves the report's cached intermediates."""
        from lcunorm.pipeline import _MethodEngine

        return _MethodEngine(self.prepared(molecule, variant), self.cache_dir)


@pytest.fixture(scope="session")
def runner(tmp_path_factory):
    cache_dir = os.environ.get("LCUNORM_CACHE_DIR")
    return PipelineRunner(cache_dir or str(tmp_path_factory.mktemp("lcunorm-cache")))
