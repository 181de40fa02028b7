"""Check/report containers shared by every verifier.

A verifier returns a Report: an ordered list of Checks, each carrying a short
stable id (the equation tag it tests), a human label, a verdict, and — on
failure — explicit counterexample certificates.  Reports merge so compound
verifiers (e.g. a Hopf check that first re-runs both bialgebroid checks) can
namespace their parts.
"""

from dataclasses import dataclass, field
from operator import eq


DEFAULT_CERTIFICATE_LIMIT = 10


def column_certificates(lhs, rhs, names, fmt, template, equal=eq):
    """Compare two sequences of columns (sparse vectors) position by
    position: for each position where ``equal`` says they differ,
    ``template`` filled with the basis name of that position and both
    columns written by ``fmt``.  A quotient-valued identity passes its
    space's ``equal`` and ``fmt``; a template may leave out the two
    values.  The sequences may be generators."""
    return [template.format(name, fmt(u), fmt(v))
            for name, u, v in zip(names, lhs, rhs) if not equal(u, v)]


@dataclass
class Check:
    """Outcome of one named axiom or identity test."""

    check_id: str
    label: str
    ok: bool
    certificates: list = field(default_factory=list)
    skipped: bool = False
    note: str = ""

    @property
    def verdict(self):
        if self.skipped:
            return "SKIP"
        return "PASS" if self.ok else "FAIL"

    def to_dict(self, certificate_limit=DEFAULT_CERTIFICATE_LIMIT):
        d = {
            "id": self.check_id,
            "label": self.label,
            "verdict": self.verdict,
        }
        if self.note:
            d["note"] = self.note
        if not self.ok and not self.skipped:
            shown = self.certificates[:certificate_limit]
            d["certificates"] = list(shown)
            extra = len(self.certificates) - len(shown)
            if extra > 0:
                d["certificates_truncated"] = extra
        return d


class Report:
    """An ordered bundle of checks with an overall verdict."""

    def __init__(self, title):
        self.title = title
        self.checks = []

    def add(self, check_id, label, ok, certificates=None, skipped=False, note=""):
        chk = Check(check_id, label, bool(ok), list(certificates or []), skipped, note)
        self.checks.append(chk)
        return chk

    def add_skip(self, check_id, label, note=""):
        return self.add(check_id, label, True, skipped=True, note=note)

    def extend(self, other, prefix=""):
        """Absorb another report's checks, optionally namespacing their ids."""
        for chk in other.checks:
            cid = f"{prefix}{chk.check_id}" if prefix else chk.check_id
            self.checks.append(Check(cid, chk.label, chk.ok,
                                     list(chk.certificates), chk.skipped, chk.note))
        return self

    @property
    def passed(self):
        return all(c.ok or c.skipped for c in self.checks)

    @property
    def verdict(self):
        return "PASS" if self.passed else "FAIL"

    def failures(self):
        return [c for c in self.checks if not c.ok and not c.skipped]

    def find(self, check_id):
        for c in self.checks:
            if c.check_id == check_id:
                return c
        return None

    def to_dict(self, certificate_limit=DEFAULT_CERTIFICATE_LIMIT):
        return {
            "title": self.title,
            "verdict": self.verdict,
            "checks": [c.to_dict(certificate_limit) for c in self.checks],
        }

    def render_text(self, certificate_limit=DEFAULT_CERTIFICATE_LIMIT):
        lines = [f"{self.title}: {self.verdict}"]
        for c in self.checks:
            lines.append(f"  [{c.verdict}] {c.check_id}: {c.label}")
            if c.note:
                lines.append(f"         note: {c.note}")
            if not c.ok and not c.skipped:
                shown = c.certificates[:certificate_limit]
                for cert in shown:
                    lines.append(f"         counterexample: {cert}")
                extra = len(c.certificates) - len(shown)
                if extra > 0:
                    lines.append(f"         ... {extra} more")
        return "\n".join(lines)

    def __repr__(self):
        return f"Report({self.title!r}, {self.verdict}, {len(self.checks)} checks)"
