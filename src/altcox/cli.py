"""Command-line front end: presentation builders, coset enumeration,
chain normal forms, and the verification catalog.

Exit codes: 0 ok, 2 usage error, 3 coset cap exceeded (by `enumerate`,
the one enumeration behind `nf`, or either of the two behind `order`: over
a cyclic subgroup and, when its order is not certified, over the trivial
one; ``main`` alone turns the engine's CapExceeded into it), 4
verification failure.  A usage error is bad input (an argparse error such
as a rank above ``coxeter.MAX_RANK``, an ``InputError`` or a file error)
or running out of memory; any other exception is a bug and ends in a
traceback.  File writes are atomic (temp file + rename) and all output
is byte-deterministic.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
import tempfile
import time

from .words import InputError, Word, Presentation, parse_word, render_word
from .coxeter import MAX_RANK, CoxeterMatrix, standard_matrix
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
    if not path:  # as open("") fails, before a temp file goes anywhere
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
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
    if path is not None:  # "" is a path that cannot be written, not stdout
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


_VARIANTS = ("coxeter", "carmichael", "bourbaki", "edge", "vv",
             "tilde", "tilde-prime",
             "tilde-plus-bourbaki", "tilde-plus-edge",
             "tilde-prime-plus-bourbaki", "tilde-prime-plus-edge",
             "a5-cover", "a6-cover")


def _read(path):
    if path is None:
        return None
    with open(path) as f:
        return f.read()


def _build_presentation(args) -> Presentation:
    """The presentation the input flags name.  Every input flag given is
    read: the covers take none, --presentation takes no other and only the
    default --variant, and --matrix takes no --family or --rank."""
    v = args.variant
    if v == "vv":
        if (args.family not in (None, "A", "a") or args.matrix is not None
                or args.presentation is not None):
            raise UsageError("vv variant is type A: it takes --rank and no "
                             "other --family, no --matrix or --presentation")
        if args.rank is None:
            raise UsageError("vv variant needs --rank")
        return presentations.vv_presentation(args.rank)
    # a file that cannot be read is reported before a clash of flags
    matrix, presentation = _read(args.matrix), _read(args.presentation)
    given = [f"--{k}" for k in ("family", "rank", "matrix", "presentation")
             if getattr(args, k) is not None]
    if v.endswith("-cover"):
        if given:
            raise UsageError(f"variant {v!r} takes no input flag, got "
                             + " ".join(given))
        return presentations.universal_extension(v[:2].upper())
    if presentation is not None:
        if len(given) > 1 or v != "coxeter":
            raise UsageError("--presentation takes no other input flag "
                             "and no --variant")
        return Presentation.from_json(presentation)
    if matrix is not None and len(given) > 1:
        raise UsageError("--matrix takes no --family or --rank")
    if (v in ("carmichael", "bourbaki", "edge") and args.family
            and args.rank is not None):
        return presentations.chain_presentation(args.family, v, args.rank)
    if v == "carmichael":
        raise UsageError("variant 'carmichael' needs --family and --rank; "
                         "it has no matrix form")
    if matrix is not None:
        m = CoxeterMatrix.from_json(matrix)
    elif args.family and args.rank is not None:
        m = standard_matrix(args.family, args.rank)
    else:
        raise UsageError("need --family and --rank, or --matrix")
    if v == "coxeter":
        return presentations.coxeter_presentation(m)
    if v == "bourbaki":
        return presentations.bourbaki_presentation(m)
    if v == "edge":
        return presentations.edge_presentation(m)[0]
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
    """The header, then one line per coset: its number and its entries in
    the positive columns, laid out in one flat list and formatted at once."""
    p, index = t.presentation, t.index
    width, ncols = p.rank + 1, 2 * p.rank
    cells = [0] * (index * width)
    cells[::width] = range(1, index + 1)
    for g in range(p.rank):  # column 2g of rows 1..index
        cells[g + 1::width] = t.rows[ncols + 2 * g::ncols]
    lines = ("%d," * p.rank + "%d\n") * index % tuple(cells)
    return "coset," + ",".join(p.generators) + "\n" + lines


def cmd_enumerate(args):
    p = _build_presentation(args)
    sub = _subgroup_words(args, p)
    if args.table is None and args.dot is None and args.reps is None:
        # no artifact reads the table, so the core only counts the cosets
        _emit(f"index {engine.index(p, sub, args.max_cosets)}\n", args.output)
        return EXIT_OK
    t = engine.enumerate(p, sub, args.max_cosets)
    if args.table is not None:
        _atomic_write(args.table, _table_csv(t))
    if args.dot is not None or args.reps is not None:
        texts = engine.schreier_texts(t)  # rendered once for both files
    if args.dot is not None:
        _atomic_write(args.dot, engine.to_dot(t, texts))
    if args.reps is not None:
        _atomic_write(args.reps, "\n".join(texts[1:]) + "\n")
    _emit(f"index {t.index}\n", args.output)
    return EXIT_OK


def cmd_order(args):
    p = _build_presentation(args)
    _emit(f"{engine._order(p, args.max_cosets)}\n", args.output)
    return EXIT_OK


def cmd_nf(args):
    if args.enumerate and args.word is not None:  # the word would go unread
        raise UsageError("nf takes --word or --enumerate, not both")
    chain = chains.Chain(args.family, args.variant, args.rank, args.max_cosets)
    p = chain.presentation
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


def _images(family, variant, rank):
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


def _orders(family, rank):
    want = oracle.alternating_order(family, rank)
    return all(engine.order(presentations.chain_presentation(family, v, rank))
               == want for v in ("carmichael", "bourbaki", "edge"))


def _spinor(family, rank):
    m = standard_matrix(family, rank)
    return (engine.order(presentations.spinor_plus_presentation(m, "edge", "tilde"))
            == 2 * engine.order(presentations.edge_presentation(m)[0]))


def _vv_equivalence():
    p_vv = presentations.vv_presentation(4)
    p_edge = presentations.chain_presentation("A", "edge", 4)
    ident = (Word.gen(0), Word.gen(1), Word.gen(2))
    return (presentations.GroupHom(p_vv, p_edge, ident).verify()
            and presentations.GroupHom(p_edge, p_vv, ident).verify())


def _artin_braid():
    for n in range(3, 8):
        images = oracle.standard_images("A", "edge", n)
        for i in range(n - 2):
            r_i = images[i].inverse() if (i + 1) % 2 else images[i]
            r_j = images[i + 1].inverse() if (i + 2) % 2 else images[i + 1]
            if r_i * r_j * r_i != r_j * r_i * r_j:
                return False
    return True


def _spinor_iso():
    fwd, bwd = presentations.spinor_iso(standard_matrix("A", 3))
    rt = engine.enumerate(fwd.target, ())
    rs = engine.enumerate(bwd.target, ())
    return (fwd.verify(rt) and bwd.verify(rs)
            and presentations.is_identity_hom(presentations.compose(fwd, bwd), rs))


def _a5_cover():
    # A5+ is the even subgroup of S6, order 360; kernel C2 x C3
    return engine.order(presentations.universal_extension("A5"),
                        cap=500_000) == 6 * 360


def _verify_checks():
    """(name, thunk) pairs; each thunk returns True on pass."""
    ranks = [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
             ("B", 4), ("D", 3), ("D", 4)]
    return ([(f"images-{f}{r}-{v}", functools.partial(_images, f, v, r))
             for f, r in ranks
             for v in ("coxeter", "carmichael", "bourbaki", "edge")]
            + [(f"orders-{f}{r}", functools.partial(_orders, f, r))
               for f, r in (("A", 4), ("B", 3), ("D", 4))]
            + [(f"spinor-{f}{r}", functools.partial(_spinor, f, r))
               for f, r in (("A", 3), ("B", 3), ("D", 4))]
            + [("vv-equivalence", _vv_equivalence), ("artin-braid", _artin_braid),
               ("spinor-iso-A3", _spinor_iso), ("a5-cover-order", _a5_cover)])


def cmd_verify(args):
    checks = _verify_checks()
    if args.only:
        checks = [(n, f) for n, f in checks if args.only in n]
        if not checks:
            raise UsageError(f"no checks match {args.only!r}")
    failures = 0
    lines = []
    for name, thunk in checks:
        start = time.perf_counter()
        ok = thunk()
        if args.timings:
            sys.stderr.write(f"{name} {(time.perf_counter() - start) * 1e3:.3f}\n")
        failures += not ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    _emit("\n".join(lines) + "\n", args.output)
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

    p = sub.add_parser("order", help="group order by coset enumeration")
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
    p.add_argument("--timings", action="store_true",
                   help="write each check's wall time in ms to stderr")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)
    ap.commands = sub.choices  # name -> parser, for _parse
    return ap


@functools.cache
def _parser():
    return build_parser()


def _parse(argv):
    """The arguments of argv, read once.  A command reads argv[1:] with its
    own parser, as the full parser would hand it over; when argv[0] names no
    command or arguments are left over, the full parser reads argv, so that
    help, usage, errors and exit codes are that parser's own."""
    ap = _parser()
    command = ap.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return ap.parse_args(argv)


def main(argv=None):
    """Run one command and return its exit code.  The parser is built on
    the first call, not at import, and reused for the life of the process."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
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
        cap = (f" for --max-cosets {args.max_cosets}"
               if hasattr(args, "max_cosets") else "")
        sys.stderr.write(f"error: not enough memory{cap}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
