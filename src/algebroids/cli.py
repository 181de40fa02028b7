"""Command-line front end: verify, analyze, and transform spec files.

Exit codes: 0 — all checks passed; 1 — at least one axiom/identity check
failed; 2 — usage, syntax, reference, or dimension error.

Reports go to stdout.  Commands that produce a new spec document
(``ls-antipode``, ``twist apply``, ``twist recover``, ``dualize``) write it
to ``--out FILE`` and the report to stdout; without ``--out`` the document
itself goes to stdout and the report to stderr.
"""

import argparse
import json
import sys

from . import specfile
from .algebra import separability_structure, verify_algebra
from .bialgebroid import verify_left_bialgebroid, verify_right_bialgebroid
from .hopfcore import check_lu_axioms, verify_hopf
from .integrallab import (
    LEFT,
    RIGHT,
    Degenerate,
    NondegenerateIntegral,
    PreconditionError,
    dual_hopf_algebroid,
    duality_diagram,
    integral_space,
    intpr_equivalences,
    ls_antipode,
    nondegeneracy,
)
from .report import DEFAULT_CERTIFICATE_LIMIT, Report, column_certificates
from .specfile import SpecBuilder, SpecError, parse_field
from .twistlab import (
    apply_twist,
    recover_twist,
    twisted_antipode,
    verify_twist,
    verify_weak_hopf,
    wha_decide,
)

REPORT_SCHEMA = "algebroid-report/1"


def emit_report(report, fmt="text", certificate_limit=DEFAULT_CERTIFICATE_LIMIT):
    """Render a report as a deterministic string."""
    if fmt == "structured":
        body = {"schema": REPORT_SCHEMA}
        body.update(report.to_dict(certificate_limit))
        return json.dumps(body, indent=2) + "\n"
    return report.render_text(certificate_limit) + "\n"


# ---------------------------------------------------------------------------
# command implementations; each returns (Report, emitted-spec-text-or-None)


def _lu_with_section(spec, name):
    """The left side that declared the section ``name``, and the lu check
    with that section.  A section that is not d² × q for that side's tensor
    square is a dimension error."""
    if name not in spec.sections:
        raise SpecError(f"no section named {name!r}")
    lbname, section = spec.sections[name]
    lb = spec.left_bialgebroids[lbname]
    shape = (lb.total.dim ** 2, lb.tensor_space.dim)
    if (section.nrows, section.ncols) != shape:
        raise SpecError(f"section {name!r} is {section.nrows} x "
                        f"{section.ncols}, but the tensor square of "
                        f"{lb.name!r} needs {shape[0]} x {shape[1]}")
    return lb, lambda h: check_lu_axioms(h.lb, h.S, section=section)


def cmd_check(spec, args):
    level = args.level
    # level -> (the spec's table, its kind in messages, the verifier); built
    # per call, so a verifier rebound on this module (a test's patch, the
    # benchmark tracer's wrapper) is the one that runs
    table, what, verify = {
        "algebra": (spec.algebras, "algebra", verify_algebra),
        "left-bialgebroid": (spec.left_bialgebroids, "left_bialgebroid",
                             verify_left_bialgebroid),
        "right-bialgebroid": (spec.right_bialgebroids, "right_bialgebroid",
                              verify_right_bialgebroid),
        "hopf": (spec.hopf_algebroids, "hopf_algebroid", verify_hopf),
        "weak-hopf": (spec.weak_hopf, "weak_hopf", verify_weak_hopf),
        "lu": (spec.hopf_algebroids, "hopf_algebroid",
               lambda h: check_lu_axioms(h.lb, h.S)),
    }[level]
    lb = None
    if level == "lu" and args.section is not None:
        lb, verify = _lu_with_section(spec, args.section)
    pairs = spec.select(table, what, args.name)
    if lb is not None:
        # a section is checked only on the assemblies of the side that
        # declared it
        mine = [(nm, h) for nm, h in pairs if h.lb is lb]
        if not mine:
            raise SpecError(
                f"section {args.section!r} is declared on {lb.name!r}, "
                "which is not the left side of "
                + ", ".join(repr(nm) for nm, _ in pairs))
        pairs = mine
    rep = Report(f"check --level {level} on {spec.source}")
    for nm, x in pairs:
        rep.extend(verify(x), prefix=f"{nm}-")
    return rep, None


def cmd_integrals(spec, args):
    nm, h = spec.hopf(args.name)
    rep = Report(f"integrals of {nm}")
    A = h.total
    spaces = {}
    for side in (LEFT, RIGHT):
        sp = integral_space(h, side)
        spaces[side] = sp
        desc = "; ".join(A.fmt_vec(v) for v in sp.space.sparse_basis()) \
            or "0"
        rep.add(f"{side}-space", f"{side} integral space",
                note=f"dimension {sp.dim}: spanned by {desc}")
    declared = sorted(el for el, (alg, _) in spec.elements.items()
                      if spec.algebras[alg] is A)
    for el in declared:
        _, coords = spec.elements[el]
        is_left = spaces[LEFT].contains(coords)
        rep.add(f"member-{el}", f"{el} is a left integral",
                [] if is_left else
                [f"{A.fmt_vec(A.from_dense(coords))} is not in the left "
                 "integral space"])
        if not is_left:
            continue
        rep.extend(intpr_equivalences(h, coords), prefix=f"{el}-")
        out = nondegeneracy(h, coords)
        ok = isinstance(out, NondegenerateIntegral)
        rep.add(f"nd-{el}", f"{el} is nondegenerate",
                [] if ok else [out.reason])
    if not declared:
        for i, vec in enumerate(spaces[LEFT].basis_vectors()):
            out = nondegeneracy(h, vec)
            ok = isinstance(out, NondegenerateIntegral)
            note = ("nondegenerate" if ok
                    else f"degenerate ({out.reason})")
            rep.add(f"basis-{i}", f"basis integral "
                    f"{A.fmt_vec(A.from_dense(vec))}", note=note)
    return rep, None


def cmd_ls_antipode(spec, args):
    nm, rb = spec.right_bialgebroid(args.name)
    el, ell = spec.element_for(rb.total, args.integral)
    rep = Report(f"antipode construction on {nm} from {el}")
    try:
        h = ls_antipode(rb, ell, name=f"{nm}-hopf")
    except ValueError as exc:
        # a refused precondition is reported, not raised
        pre = getattr(exc, "report", None)
        if pre is None:
            raise
        rep.extend(pre, prefix="pre-")
        return rep, None
    rep.extend(h.decided["pre"], prefix="pre-")
    rep.extend(h.decided["hopf"], prefix="hopf-")
    text = specfile.spec_from_hopf(h, integral=rb.total.from_dense(ell),
                                   integral_name=el)
    return rep, text


def _twist_context(spec, args):
    nm, h = spec.hopf(args.name)
    fname, lbname, g = spec.functional_for(args.functional)
    if lbname in spec.left_bialgebroids and \
            spec.left_bialgebroids[lbname] is not h.lb:
        raise SpecError(
            f"functional {fname!r} is declared on {lbname!r}, which is not "
            f"the left side of {nm!r}")
    return nm, h, fname, g


def cmd_twist_verify(spec, args):
    nm, h, fname, g = _twist_context(spec, args)
    rep = Report(f"twist check of {fname} on {nm}")
    rep.extend(verify_twist(h.lb, h.S, g))
    return rep, None


def cmd_twist_apply(spec, args):
    nm, h, fname, g = _twist_context(spec, args)
    rep = Report(f"twisted antipode from {fname} on {nm}")
    pre = verify_twist(h.lb, h.S, g)
    rep.extend(pre, prefix="twist-")
    if not pre.passed:
        return rep, None
    out = apply_twist(h.lb, h.S, g, name=f"{nm}-{fname}")
    rep.extend(verify_hopf(out), prefix="hopf-")
    text = specfile.spec_from_hopf(out, name=f"{nm}-{fname}")
    return rep, text


def cmd_twist_recover(spec, args):
    pairs = spec.select(spec.hopf_algebroids, "hopf_algebroid", None)
    names = [nm for nm, _ in pairs]
    first = args.name or (names[0] if len(names) == 2 else None)
    second = args.second or (names[1] if len(names) == 2 else None)
    if first is None or second is None:
        raise SpecError("twist recover needs exactly two Hopf assemblies "
                        "(or --name/--second)")
    h1 = dict(pairs).get(first)
    h2 = dict(pairs).get(second)
    if h1 is None or h2 is None:
        raise SpecError(f"unknown Hopf assembly among {first!r}, {second!r}")
    rep = Report(f"twist relating {first} and {second}")
    same_left = h1.lb.same_structure(h2.lb)
    rep.add("recover-shared-left", "both share the left bialgebroid",
            [] if same_left else ["left structures differ"])
    if not same_left:
        return rep, None
    g, g_inv = recover_twist(h1.lb, h1.S, h2.S)
    rep.extend(verify_twist(h1.lb, h1.S, g, g_inv), prefix="twist-")
    rep.add("recover-roundtrip", "S twisted by g equals the second antipode",
            column_certificates(
                twisted_antipode(h1.lb, h1.S, g).cols, h2.S.cols,
                h1.total.basis_names, h1.total.fmt_vec,
                "a = {}: S_g(a) = {} but S'(a) = {}"))
    b = SpecBuilder(spec.field)
    lb_name = b.add_bialgebroid(h1.lb)
    b.add_functional("recovered-twist", lb_name, g)
    return rep, b.emit()


def _integral_prelude(spec, args, command, title):
    """The Hopf algebroid of the spec, its name, a report titled ``title``
    (filled with that name and the integral's) and the non-degenerate
    integral named on the command line.  The integral is None when the
    element is not a left integral or is degenerate; the report then says
    which, under ``command``'s check ids."""
    nm, h = spec.hopf(args.name)
    el, ell = spec.element_for(h.total, args.integral)
    rep = Report(title.format(nm, el))
    if not integral_space(h, LEFT).contains(ell):
        rep.add(f"{command}-integral", f"{el} is a left integral",
                [f"{h.total.fmt_vec(h.total.from_dense(ell))} is not a "
                 "left integral"])
        return nm, h, rep, None
    nd = nondegeneracy(h, ell)
    if isinstance(nd, Degenerate):
        rep.add(f"{command}-nondegenerate", f"{el} is nondegenerate",
                [nd.reason])
        return nm, h, rep, None
    return nm, h, rep, nd


def cmd_dualize(spec, args):
    nm, h, rep, nd = _integral_prelude(
        spec, args, "dualize", "dual of {} at {}")
    if nd is None:
        return rep, None
    rep.extend(nd.report, prefix="nd-")
    hd = dual_hopf_algebroid(h, nd, name=f"{nm}-dual")
    rep.extend(hd.decided["hopf"], prefix="dual-")
    text = specfile.spec_from_hopf(hd, integral=hd.decided["kappa"],
                                   integral_name="kappa")
    return rep, text


def cmd_wha_decide(spec, args):
    nm, h = spec.hopf(args.name)
    sep = separability_structure(h.lb.base)
    if sep is None:
        raise SpecError(f"the base {h.lb.base.name} has a degenerate "
                        "trace form")
    out = wha_decide(h, sep=sep)
    rep = Report(f"weak Hopf decision for {nm}")
    rep.add("wha-verdict", f"decision: {out['verdict']}",
            [out["report"].failure_line()]
            if out["verdict"] == "not-weak-hopf" else [])
    rep.extend(out["report"])
    return rep, None


def cmd_diagram(spec, args):
    _, h, rep, nd = _integral_prelude(
        spec, args, "diagram", "duality square of {} at {}")
    if nd is None:
        return rep, None
    rep.extend(duality_diagram(h, nd))
    return rep, None


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _certificate_limit(text):
    """A ``--certificate-limit`` value: a count, so never negative."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="Exact verification and construction for bialgebroids, "
                    "Hopf algebroids, and weak Hopf algebras.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", choices=("text", "structured"),
                        default="text", help="report rendering")
    common.add_argument("--certificate-limit", type=_certificate_limit,
                        default=DEFAULT_CERTIFICATE_LIMIT, metavar="N",
                        help="max counterexamples listed per failing check")
    common.add_argument("--field", default=None, metavar="F",
                        help="override the file's field (rational or gf:p)")
    common.add_argument("--name", default=None,
                        help="which named assembly to use")

    sub = parser.add_subparsers(dest="command", required=True)

    def add_path(p):
        p.add_argument("path", help="spec file (algebroid-spec/1 JSON)")

    p = sub.add_parser("check", parents=[common],
                       help="run an axiom verifier")
    add_path(p)
    p.add_argument("--level", required=True,
                   choices=("algebra", "left-bialgebroid",
                            "right-bialgebroid", "hopf", "weak-hopf", "lu"))
    p.add_argument("--section", default=None,
                   help="named section for the convolution axioms")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("integrals", parents=[common],
                       help="integral spaces and nondegeneracy")
    add_path(p)
    p.set_defaults(func=cmd_integrals)

    p = sub.add_parser("ls-antipode", parents=[common],
                       help="build the antipode from a nondegenerate "
                            "integral on a right bialgebroid")
    add_path(p)
    p.add_argument("--integral", default=None,
                   help="named element to use as the integral")
    p.add_argument("--out", default=None, help="write the emitted spec here")
    p.set_defaults(func=cmd_ls_antipode)

    p = sub.add_parser("twist", parents=[common],
                       help="verify, apply, or recover antipode twists")
    p.add_argument("action", choices=("verify", "apply", "recover"))
    add_path(p)
    p.add_argument("--functional", default=None,
                   help="named twist functional")
    p.add_argument("--second", default=None,
                   help="second Hopf assembly (twist recover)")
    p.add_argument("--out", default=None, help="write the emitted spec here")
    p.set_defaults(func=None)

    p = sub.add_parser("dualize", parents=[common],
                       help="emit the dual Hopf algebroid")
    add_path(p)
    p.add_argument("--integral", default=None)
    p.add_argument("--out", default=None, help="write the emitted spec here")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("wha-decide", parents=[common],
                       help="decide weak-Hopf-ness over the separability "
                            "structure of the base's trace form")
    add_path(p)
    p.set_defaults(func=cmd_wha_decide)

    p = sub.add_parser("diagram", parents=[common],
                       help="verify the four-isomorphism duality square")
    add_path(p)
    p.add_argument("--integral", default=None)
    p.set_defaults(func=cmd_diagram)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "twist":
        args.func = {"verify": cmd_twist_verify,
                     "apply": cmd_twist_apply,
                     "recover": cmd_twist_recover}[args.action]

    try:
        field = parse_field(args.field) if args.field else None
        spec = specfile.parse(args.path, field=field)
        report, emitted = args.func(spec, args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rendered = emit_report(report, args.report, args.certificate_limit)
    if emitted is not None:
        out_path = getattr(args, "out", None)
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(emitted)
            sys.stdout.write(rendered)
        else:
            sys.stdout.write(emitted)
            sys.stderr.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
