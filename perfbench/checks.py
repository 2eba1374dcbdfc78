"""Checks on the emitted reports, run between the timed passes.

Every method cell of every report is checked, and each check a cell fails
is recorded with its kind and reason:

- "reference": fixture cells against the reference table of
  `tests/test_acceptance.py`, with that module's own rule
  (`_upper_bound`, `_check_cell`): two-sided for the cells the tensors
  fix, one-sided (`value <= reference + tol`) for cells a heuristic or a
  local search reached;
- "property": properties every report must have: AC <= Pauli,
  OO-AC <= OO-Pauli <= Pauli, GCSA-SR <= GCSA-F, a shifted cell no
  higher than the raw cell of the same method, a finite non-negative
  1-norm and `log2_ceil` consistent with `unitary_count`; and the Pauli
  1-norm against the closed form as evaluated here from the tensors the
  run decomposes (`pipeline.prepare`).  The floor lambda >= dE/2 - 1e-9
  is not checked here: `report_for_tensors` raises on it, so such a cell
  arrives as "report raised";
- "output": a report that raised, that lacks a requested method, or whose
  warm JSON differs from the cold JSON byte for byte.
"""

import json
import math
import os
import sys

import numpy as np

SLACK = 1e-9

# (lower cell, higher cell): the first may not exceed the second
_ORDERED = [("ac", "pauli"), ("oo-ac", "oo-pauli"), ("oo-pauli", "pauli"), ("gcsa-sr", "gcsa-f")]


def acceptance_module(root):
    """`tests/test_acceptance.py` of the checkout, imported as a module."""
    tests = os.path.join(root, "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import test_acceptance

    return test_acceptance


class Reference:
    """The acceptance reference table and its one-/two-sided rule."""

    def __init__(self, root):
        acc = acceptance_module(root)
        self._acc = acc
        self.tables = {"raw": acc.REF_RAW, "shifted": acc.REF_SHIFTED, "residual": acc.REF_RESIDUAL}

    def one_sided(self, variant, method):
        """Cells whose value a heuristic or a local search reached."""
        return self._acc._upper_bound(variant, method)

    def failure(self, molecule, variant, method, value):
        """The reason `value` breaks the reference table, or None."""
        table = self.tables[variant]
        if molecule not in table:
            return None
        try:
            self._acc._check_cell(
                value,
                self._acc._ref(table, molecule, method),
                method,
                loose=variant == "residual",
                upper_only=self.one_sided(variant, method),
            )
        except AssertionError as exc:
            return str(exc)
        return None


def pauli_closed_form(obt, g):
    """Jordan-Wigner Pauli 1-norm of chemist-form tensors: the adjusted
    one-body matrix, the same-spin antisymmetrized pairs i>k, j>l and half
    of the opposite-spin mass, summed pair by pair."""
    n = obt.shape[0]
    adjusted = obt + 2.0 * np.trace(g, axis1=2, axis2=3)
    total = np.abs(adjusted).sum() + 0.5 * np.abs(g).sum()
    for i in range(n):
        for k in range(i):
            block = g[i, :, k, :]
            total += np.abs(np.tril(block - block.T, -1)).sum()
    return float(total)


def _log2_ceil(count):
    return math.ceil(math.log2(count)) if count >= 2 else 0


def check_round(reference, methods, cold, warm, tensors):
    """Failed cells of one round, as {(molecule, variant, method): [(kind, reason)]}.

    `methods` maps (molecule, variant) to the methods the report asked for;
    `cold` and `warm` map it to the report's emitted JSON text (None if the
    report raised), and `tensors` to the tensors the report decomposes.
    """
    failed = {}

    def fail(key, method, kind, reason):
        failed.setdefault(key + (method,), []).append((kind, reason))

    cells = {}
    for key, text in cold.items():
        if text is None:
            for m in methods[key]:
                fail(key, m, "output", "report raised")
            continue
        doc = json.loads(text)["reports"][0]["methods"]
        cells[key] = doc
        if sorted(doc) != sorted(methods[key]):
            for m in methods[key]:
                fail(key, m, "output", "report does not hold the requested methods")
        if warm[key] != text:
            for m in methods[key]:
                fail(key, m, "output", "warm JSON differs from cold JSON")

    for key, doc in cells.items():
        mol, variant = key
        for m, e in doc.items():
            lam = e["lambda"]
            if not math.isfinite(lam) or lam < 0:
                fail(key, m, "property", f"1-norm {lam} is not a finite non-negative number")
            if e["log2_ceil"] != _log2_ceil(e["unitary_count"]):
                fail(key, m, "property", "log2_ceil does not match unitary_count")
            why = reference.failure(mol, variant, m, lam)
            if why:
                fail(key, m, "reference", why)
        for low, high in _ORDERED:
            if low in doc and high in doc:
                if doc[low]["lambda"] > doc[high]["lambda"] + SLACK:
                    fail(key, low, "property", f"above {high}")
        raw = cells.get((mol, "raw"))
        if variant == "shifted" and raw is not None:
            for m in doc.keys() & raw.keys():
                if doc[m]["lambda"] > raw[m]["lambda"] + SLACK:
                    fail(key, m, "property", "shifted 1-norm above the raw one")
        if "pauli" in doc:
            t = tensors[key]
            expect = pauli_closed_form(t.obt, t.tbt)
            got = doc["pauli"]["lambda"]
            if abs(got - expect) > SLACK * max(1.0, abs(expect)):
                fail(key, "pauli", "property", f"{got!r} differs from the closed form {expect!r}")
    return failed
