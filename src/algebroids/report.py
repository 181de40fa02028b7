"""Check/report containers shared by every verifier.

A verifier returns a Report: an ordered list of Checks, each carrying a short
stable id (the equation tag it tests), a human label and its counterexample
certificates.  A check fails if and only if it carries a certificate:
``Report.add`` takes the certificates and no verdict, so no check can fail
without a counterexample or pass with one, and ``Report.add_skip`` is the
one way to skip a check.  Reports merge so compound verifiers (e.g. a Hopf
check that first re-runs both bialgebroid checks) can namespace their parts.
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
    values.  The sequences may be generators; ``names`` is indexed by
    position, and only where the columns differ.  The list is empty if and
    only if every position agrees, so it is the check's verdict as well as
    its counterexamples."""
    return [template.format(names[k], fmt(u), fmt(v))
            for k, (u, v) in enumerate(zip(lhs, rhs)) if not equal(u, v)]


class PairNames:
    """The names of the pairs (p, q) of ``first`` × ``second``, q running
    fastest, as "p, letter = q": the ``names`` of a ``column_certificates``
    over basis pairs, whose template opens with the first letter, as in
    "a = {}: …".  A name is written only when it is looked up, so a check
    that passes writes none."""

    def __init__(self, first, second, letter):
        self.first, self.second, self.letter = first, second, letter

    def __getitem__(self, k):
        p, q = divmod(k, len(self.second))
        return f"{self.first[p]}, {self.letter} = {self.second[q]}"


@dataclass
class Check:
    """Outcome of one named axiom or identity test: it passes if and only
    if it has no certificate."""

    check_id: str
    label: str
    certificates: list = field(default_factory=list)
    skipped: bool = False
    note: str = ""

    @property
    def ok(self):
        return not self.certificates

    @property
    def verdict(self):
        if self.skipped:
            return "SKIP"
        return "FAIL" if self.certificates else "PASS"

    def to_dict(self, certificate_limit=DEFAULT_CERTIFICATE_LIMIT):
        d = {
            "id": self.check_id,
            "label": self.label,
            "verdict": self.verdict,
        }
        if self.note:
            d["note"] = self.note
        if self.certificates:
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

    def add(self, check_id, label, certificates=(), *, note=""):
        """Record a check that fails if and only if ``certificates``, its
        counterexamples as strings, is not empty.  A verdict in their
        place is not iterable and raises TypeError."""
        self.checks.append(Check(check_id, label, list(certificates),
                                 note=note))

    def add_skip(self, check_id, label, note=""):
        self.checks.append(Check(check_id, label, skipped=True, note=note))

    def extend(self, other, prefix=""):
        """Absorb another report's checks, optionally namespacing their ids."""
        for chk in other.checks:
            cid = f"{prefix}{chk.check_id}" if prefix else chk.check_id
            self.checks.append(Check(cid, chk.label, list(chk.certificates),
                                     chk.skipped, chk.note))
        return self

    @property
    def passed(self):
        return all(c.ok for c in self.checks)

    @property
    def verdict(self):
        return "PASS" if self.passed else "FAIL"

    def failures(self):
        return [c for c in self.checks if c.certificates]

    def failure_line(self):
        """The first three failing checks, as one line."""
        return "; ".join(f"{chk.check_id}: {chk.label}"
                         for chk in self.failures()[:3])

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
            shown = c.certificates[:certificate_limit]
            for cert in shown:
                lines.append(f"         counterexample: {cert}")
            extra = len(c.certificates) - len(shown)
            if extra > 0:
                lines.append(f"         ... {extra} more")
        return "\n".join(lines)

    def __repr__(self):
        return f"Report({self.title!r}, {self.verdict}, {len(self.checks)} checks)"
