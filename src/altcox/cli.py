"""Command-line front end: presentation builders, coset enumeration,
chain normal forms, and the verification catalog.

Exit codes: 0 ok, 2 usage error, 3 coset cap exceeded (by `order`,
`enumerate`, or any enumeration behind `nf`; ``main`` alone turns the
engine's CapExceeded into it), 4 verification failure.  A usage error is
bad input (an argparse error such as a rank above ``coxeter.MAX_RANK``, an
``InputError`` or a file error) or a --max-cosets that does not fit in
memory; any other exception is a bug and ends in a traceback.  File writes
are atomic (temp file + rename) and all output is byte-deterministic.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile

from .words import InputError, Word, Presentation, parse_word, render_word
from .coxeter import (MAX_RANK, CoxeterMatrix, graph_from_matrix,
                      connected_extension, standard_matrix)
from . import engine, oracle, presentations, chains

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


class UsageError(InputError):
    pass


def _atomic_write(path, text):
    """Write text to path through a temp file and a rename.  An OSError
    names path alone: the temp file's random name would make the message
    differ from run to run."""
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-altcox-")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None


def _emit(text, path=None):
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


_VARIANTS = ("coxeter", "carmichael", "bourbaki", "edge", "vv",
             "tilde", "tilde-prime",
             "tilde-plus-bourbaki", "tilde-plus-edge",
             "tilde-prime-plus-bourbaki", "tilde-prime-plus-edge",
             "a5-cover", "a6-cover")


def _matrix_for(args) -> CoxeterMatrix:
    if args.matrix:
        with open(args.matrix) as f:
            return CoxeterMatrix.from_json(f.read())
    if not args.family or args.rank is None:
        raise UsageError("need --family and --rank, or --matrix")
    return standard_matrix(args.family, args.rank)


def _build_presentation(args) -> Presentation:
    v = args.variant
    if v.endswith("-cover"):
        return presentations.universal_extension(v[:2].upper())
    if v == "vv":
        if args.rank is None:
            raise UsageError("vv variant needs --rank")
        return presentations.vv_presentation(args.rank)
    if args.presentation:
        with open(args.presentation) as f:
            return Presentation.from_json(f.read())
    if (v in ("carmichael", "bourbaki", "edge") and args.family
            and args.rank is not None and not args.matrix):
        return presentations.chain_presentation(args.family, v, args.rank)
    if v == "carmichael":
        raise UsageError("variant 'carmichael' needs --family and --rank; "
                         "it has no matrix form")
    m = _matrix_for(args)
    if v == "coxeter":
        return presentations.coxeter_presentation(m)
    if v == "bourbaki":
        return presentations.bourbaki_presentation(m)
    if v == "edge":
        return presentations.edge_presentation(connected_extension(
            graph_from_matrix(m)))[0]
    variant = "tilde_prime" if v.startswith("tilde-prime") else "tilde"
    if v in ("tilde", "tilde-prime"):
        return presentations.spinor_presentation(m, variant)
    # the four tilde-plus and tilde-prime-plus variants remain
    return presentations.spinor_plus_presentation(m, v.rsplit("-", 1)[1], variant)


def _rank(text):
    rank = int(text)
    if rank > MAX_RANK:
        raise argparse.ArgumentTypeError(f"rank {rank} above {MAX_RANK}")
    return rank


def _input_flags(sub):
    sub.add_argument("--family", choices=("A", "B", "D", "a", "b", "d"))
    sub.add_argument("--rank", type=_rank)
    sub.add_argument("--matrix", help="Coxeter matrix JSON file")
    sub.add_argument("--presentation", help="presentation JSON file")
    sub.add_argument("--variant", choices=_VARIANTS, default="coxeter")
    sub.add_argument("--output", help="write to file instead of stdout")


def cmd_present(args):
    p = _build_presentation(args)
    _emit(p.to_json() + "\n", args.output)
    return EXIT_OK


def _subgroup_words(args, p):
    words = []
    if args.subgroup_gens is not None:
        if not 0 <= args.subgroup_gens <= p.rank:
            raise UsageError("--subgroup-gens out of range")
        words += [Word.gen(k) for k in range(args.subgroup_gens)]
    for text in args.subgroup or ():
        words.append(parse_word(text, p))
    return tuple(words)


def _table_csv(t):
    p = t.presentation
    header = "coset," + ",".join(p.generators)
    lines = [header]
    rank = p.rank
    targets = t.rows[::2].tolist()  # the positive columns, rank per row
    for c in range(1, t.index + 1):
        row = [str(c)] + [str(d) for d in targets[c * rank:(c + 1) * rank]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_enumerate(args):
    p = _build_presentation(args)
    t = engine.enumerate(p, _subgroup_words(args, p), args.max_cosets)
    if args.table:
        _atomic_write(args.table, _table_csv(t))
    if args.dot:
        _atomic_write(args.dot, engine.to_dot(t))
    if args.reps:
        _atomic_write(args.reps, "\n".join(engine.schreier_texts(t)[1:]) + "\n")
    _emit(f"index {t.index}\n", args.output)
    return EXIT_OK


def cmd_order(args):
    p = _build_presentation(args)
    _emit(f"{engine.enumerate(p, (), args.max_cosets).index}\n", args.output)
    return EXIT_OK


def cmd_nf(args):
    spec = chains.ChainSpec(args.family.upper(), args.variant, args.rank)
    chain = chains.Chain(spec, args.max_cosets)
    p = spec.presentation
    if args.enumerate:
        lines = []
        for d in chain.enumerate_elements():
            lines.append(" | ".join(render_word(f, p) for f in d))
        _emit("\n".join(lines) + "\n", args.output)
        return EXIT_OK
    if args.word is None:  # "" is the identity, like "1"
        raise UsageError("nf needs --word or --enumerate")
    w = parse_word(args.word, p)
    d = chain.decompose(w)
    _emit(" | ".join(render_word(f, p) for f in d) + "\n", args.output)
    return EXIT_OK


def _verify_checks():
    """(name, thunk) pairs; each thunk returns True on pass."""
    checks = []

    def image_check(family, variant, rank):
        def run():
            if variant == "coxeter":
                p = presentations.coxeter_presentation(standard_matrix(family, rank))
            else:
                p = presentations.chain_presentation(family, variant, rank)
            images = oracle.standard_images(family, variant, rank)
            if not oracle.verify_hom(p, images):
                return False
            return (oracle.generated_order(images)
                    == (engine.order(p) if variant == "coxeter"
                        else oracle.alternating_order(family, rank)))
        return run

    catalog = [("A", r) for r in range(2, 6)] + \
              [("B", r) for r in range(2, 5)] + \
              [("D", r) for r in range(3, 5)]
    for family, rank in catalog:
        for variant in ("coxeter", "carmichael", "bourbaki", "edge"):
            checks.append((f"images-{family}{rank}-{variant}",
                           image_check(family, rank=rank, variant=variant)))

    def order_check(family, rank):
        def run():
            want = oracle.alternating_order(family, rank)
            return all(engine.order(presentations.chain_presentation(family, v, rank))
                       == want for v in ("carmichael", "bourbaki", "edge"))
        return run

    for family, rank in [("A", 4), ("B", 3), ("D", 4)]:
        checks.append((f"orders-{family}{rank}", order_check(family, rank)))

    def spinor_check(family, rank):
        def run():
            m = standard_matrix(family, rank)
            plain = engine.order(presentations.edge_presentation_for_matrix(m)[0])
            doubled = engine.order(
                presentations.spinor_plus_presentation(m, "edge", "tilde"))
            return doubled == 2 * plain
        return run

    for family, rank in [("A", 3), ("B", 3), ("D", 4)]:
        checks.append((f"spinor-{family}{rank}", spinor_check(family, rank)))

    def vv_check():
        n = 4
        p_vv = presentations.vv_presentation(n)
        p_edge = presentations.chain_presentation("A", "edge", n)
        ident = tuple(Word.gen(k) for k in range(n - 1))
        fwd = presentations.GroupHom(p_vv, p_edge, ident)
        bwd = presentations.GroupHom(p_edge, p_vv, ident)
        return fwd.verify() and bwd.verify()
    checks.append(("vv-equivalence", vv_check))

    def artin_check():
        for n in range(3, 8):
            images = oracle.standard_images("A", "edge", n)
            for i in range(n - 2):
                r_i = images[i].inverse() if (i + 1) % 2 else images[i]
                r_j = images[i + 1].inverse() if (i + 2) % 2 else images[i + 1]
                if r_i * r_j * r_i != r_j * r_i * r_j:
                    return False
        return True
    checks.append(("artin-braid", artin_check))

    def spinor_iso_check():
        fwd, bwd = presentations.spinor_iso(standard_matrix("A", 3))
        rt = engine.enumerate(fwd.target, ())
        rs = engine.enumerate(bwd.target, ())
        if not (fwd.verify(rt) and bwd.verify(rs)):
            return False
        return presentations.is_identity_hom(presentations.compose(fwd, bwd), rs)
    checks.append(("spinor-iso-A3", spinor_iso_check))

    def cover_check():
        # A5+ is the even subgroup of S6, order 360; kernel C2 x C3
        return engine.order(presentations.universal_extension("A5"),
                            cap=500_000) == 6 * 360
    checks.append(("a5-cover-order", cover_check))
    return checks


def cmd_verify(args):
    checks = _verify_checks()
    if args.only:
        checks = [(n, f) for n, f in checks if args.only in n]
        if not checks:
            raise UsageError(f"no checks match {args.only!r}")
    failures = 0
    lines = []
    for name, thunk in checks:
        ok = thunk()
        failures += not ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    _emit("\n".join(lines) + "\n", getattr(args, "output", None))
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="altcox",
        description="presentations, coset enumeration and normal forms for "
                    "alternating subgroups of Coxeter groups")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("present", help="build a presentation as JSON")
    _input_flags(p)
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("enumerate", help="coset enumeration over a subgroup")
    _input_flags(p)
    p.add_argument("--subgroup", action="append",
                   help="subgroup generator word (repeatable)")
    p.add_argument("--subgroup-gens", type=int,
                   help="use the first K generators as the subgroup")
    p.add_argument("--max-cosets", type=int, default=engine.DEFAULT_CAP)
    p.add_argument("--table", help="write coset table CSV here")
    p.add_argument("--dot", help="write Schreier graph DOT here")
    p.add_argument("--reps", help="write representative words here")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("order", help="group order by full enumeration")
    _input_flags(p)
    p.add_argument("--max-cosets", type=int, default=engine.DEFAULT_CAP)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("nf", help="chain normal forms")
    p.add_argument("--family", required=True, choices=("A", "B", "D", "a", "b", "d"))
    p.add_argument("--variant", required=True,
                   choices=("carmichael", "bourbaki", "edge"))
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--word", help="word to decompose")
    p.add_argument("--enumerate", action="store_true",
                   help="dump every normal form")
    p.add_argument("--max-cosets", type=int, default=engine.DEFAULT_CAP)
    p.add_argument("--output")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("verify", help="run the verification catalog")
    p.add_argument("--only", help="substring filter on check names")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)
    return ap


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    """Run one command and return its exit code.  The parser is built on
    the first call, not at import, and reused for the life of the process."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except engine.CapExceeded:
        cap = getattr(args, "max_cosets", engine.DEFAULT_CAP)
        sys.stderr.write(f"cap exceeded at {cap} cosets\n")
        return EXIT_CAP
    except (InputError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except MemoryError:
        # both cores double their table on demand up to --max-cosets, so a
        # large cap can run out of memory before the cap is reached
        cap = getattr(args, "max_cosets", engine.DEFAULT_CAP)
        sys.stderr.write(f"error: not enough memory for --max-cosets {cap}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
