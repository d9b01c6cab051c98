"""The one verification report: named checks and their failure witnesses."""

from __future__ import annotations


class Report:
    """One witness list per named check; a check passes when its list is empty.

    Every verification returns one: the axioms (checks shape, MBS1, MBS2,
    MBS3), each Cousin check, the orbit-polynomial laws, the finite-field
    counts and the point checks.  ``checked`` counts the laws tested, where
    a check counts them.  A report made with ``ran=False`` stands for checks
    skipped because an earlier stage failed: it has no witnesses and is not ok.
    """

    def __init__(self, *names, checked=None, ran=True):
        self.witnesses = {name: [] for name in names}
        self.checked = checked
        self.ran = ran

    @property
    def failures(self):
        """Every witness, check by check in the order the checks were named."""
        return [w for ws in self.witnesses.values() for w in ws]

    @property
    def ok(self):
        return self.ran and not self.failures

    def summary(self):
        if self.ok:
            return "PASS"
        if not self.ran:
            return "FAIL (not run)"
        parts = [f"{name}: {len(ws)} failure(s)" for name, ws in self.witnesses.items() if ws]
        if self.checked is not None:
            parts.append(f"{self.checked} checked")
        return "FAIL (" + "; ".join(parts) + ")"
