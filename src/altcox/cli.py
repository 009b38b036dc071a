"""Command-line front end: presentation builders, coset enumeration,
chain normal forms, and the verification catalog.

Exit codes: 0 ok, 2 usage error, 3 coset cap exceeded (by `enumerate`,
the one enumeration behind `nf`, or any of those behind `order`: over a
two-generator subgroup, a cyclic one and the trivial one, each run when
the one before certifies no order; ``main`` alone turns the engine's
CapExceeded into it), 4
verification failure.  A usage error is bad input (an argparse error such
as a rank above ``coxeter.MAX_RANK``, an ``InputError`` or a file error)
or running out of memory; any other exception is a bug and ends in a
traceback.  A file write is atomic (temp file + rename, over a symlink's
target), except to a path that exists and is not a regular file, such as
a device or a FIFO, or a symlink to one, which is opened and written in
place; all output is byte-deterministic.

An argv whose first token names a command is read straight from that
command's declared actions when it is well formed: each option written
exactly, each value present and not beginning with "-" and passing the
option's type and choices, and each required option given.  Argparse reads
any other argv whole, so help, usage, errors and exit codes are its own.

One process may run many commands through ``main``, which keeps a memo
of what they build for a catalog group: the presentation of each
(variant, family, rank) that --variant, --family and --rank name, or a
cover variant alone, with its engine encoding and order plan; and the `nf`
Chain of each (family, variant, rank, cap), with its top table and sift.
It keeps them in least recently used order while their weights, in
relator letters, table cells and sift points, sum to at most MEMO_BUDGET
(2^16, 2 to 4 MB); a command that fails, or a group heavier than that,
keeps nothing.  It never keeps a --matrix or --presentation input, which
is read on every command, a table over a subgroup, an order, or anything
of `verify`.  No output depends on what the memo holds.  The memo has no
lock: ``main`` runs one command at a time.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import stat
import sys
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
    """Write text to path through a temp file and a rename, or in place
    when path exists and is not a regular file: a device or a FIFO, or a
    symlink to one, which a rename would replace with a regular file.  A
    symlink is followed by os.stat(path), as open() follows it, so
    /dev/stdout on a pipe is written in place.  Any other symlink is
    renamed over at os.path.realpath(path), so a link to a regular file is
    written through and kept, and a dangling one creates its target, as
    open() would; a symlink loop raises ELOOP.  The temp file is made
    beside that path under a random name, with mode 0o666, which the umask
    reduces as it does for open().  An OSError names path alone: the temp
    file's random name would make the message differ from run to run."""
    if not path:  # as open("") fails, before a temp file goes anywhere
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    linked = False
    try:
        st = os.lstat(path)
        linked = stat.S_ISLNK(st.st_mode)
        if linked:
            st = os.stat(path)
        in_place = not stat.S_ISREG(st.st_mode)
    except OSError:  # a new path, a dangling link or a loop, or an error
        in_place = False  # the temp file or rename reports
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC
    try:
        if in_place:
            with open(path, "w") as f:
                f.write(text)
            return
        target = path
        if linked:
            target = os.path.realpath(path)
            if os.path.islink(target):  # realpath stops in a loop
                raise OSError(errno.ELOOP, os.strerror(errno.ELOOP))
        while True:
            tmp = os.path.join(os.path.dirname(target),
                               f".tmp-altcox-{os.urandom(6).hex()}")
            try:
                fd = os.open(tmp, flags, 0o666)
                break
            except FileExistsError:
                continue
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, target)
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


# the most weight the memo keeps: 9 times that of the 147 presentations
# of the benchmark's session mix, and less than a rank-400 presentation's.
# A presentation of weight 200 or more holds 37 to 76 bytes a unit once an
# order has left its encoding and plan on it, so a memo of catalog groups
# that fills the budget holds about 3.6 MB (tracemalloc)
MEMO_BUDGET = 1 << 16
_memo = {}   # key -> (weight, value), the least recently used first
_built = []  # (key, value) for each value the running request built


def _memoized(key, build):
    """The value kept under key, now the most recently used, else build()'s,
    which _keep may keep when the request ends."""
    entry = _memo.pop(key, None)
    if entry is None:
        value = build()
        _built.append((key, value))
        return value
    _memo[key] = entry
    return entry[1]


def _weight(value):
    """A presentation's relator letters, and a chain's plus its table
    cells and sift points.  What the engine keeps on a presentation counts
    with its letters: the column encoding has as many, and the order plan
    (engine._order_plan) no more on any catalog group."""
    if isinstance(value, chains.Chain):
        return _weight(value.presentation) + value.weight()
    return sum(map(len, value.relators))


def _keep():
    """Keep each value the request built that weighs at most MEMO_BUDGET,
    then drop the least recently used until the weights sum to at most
    MEMO_BUDGET."""
    for key, value in _built:
        weight = _weight(value)
        if weight <= MEMO_BUDGET:
            _memo[key] = (weight, value)
            total = sum(w for w, _ in _memo.values())
            while total > MEMO_BUDGET:
                total -= _memo.pop(next(iter(_memo)))[0]


def _build_presentation(args) -> Presentation:
    """The presentation the input flags name.  Every input flag given is
    read: the covers take none, --presentation takes no other and only the
    default --variant, and --matrix takes no --family or --rank.  A
    catalog group, named by the variant and any --family and --rank, goes
    through the memo; a file is read on every call."""
    v = args.variant
    if v == "vv":
        if (args.family not in (None, "A", "a") or args.matrix is not None
                or args.presentation is not None):
            raise UsageError("vv variant is type A: it takes --rank and no "
                             "other --family, no --matrix or --presentation")
        if args.rank is None:
            raise UsageError("vv variant needs --rank")
        return _memoized((v, "A", args.rank),
                         lambda: presentations.vv_presentation(args.rank))
    # a file that cannot be read is reported before a clash of flags
    matrix, presentation = _read(args.matrix), _read(args.presentation)
    given = [f"--{k}" for k in ("family", "rank", "matrix", "presentation")
             if getattr(args, k) is not None]
    if v.endswith("-cover"):
        if given:
            raise UsageError(f"variant {v!r} takes no input flag, got "
                             + " ".join(given))
        return _memoized((v, None, None),
                         lambda: presentations.universal_extension(v[:2].upper()))
    if presentation is not None:
        if len(given) > 1 or v != "coxeter":
            raise UsageError("--presentation takes no other input flag "
                             "and no --variant")
        return Presentation.from_json(presentation)
    if matrix is not None:
        if len(given) > 1:
            raise UsageError("--matrix takes no --family or --rank")
    elif args.family and args.rank is not None:
        family = args.family.upper()
        return _memoized((v, family, args.rank),
                         lambda: _catalog_presentation(v, family, args.rank))
    if v == "carmichael":
        raise UsageError("variant 'carmichael' needs --family and --rank; "
                         "it has no matrix form")
    if matrix is None:
        raise UsageError("need --family and --rank, or --matrix")
    return _matrix_presentation(v, CoxeterMatrix.from_json(matrix))


def _catalog_presentation(v, family, rank):
    if v in ("carmichael", "bourbaki", "edge"):
        return presentations.chain_presentation(family, v, rank)
    return _matrix_presentation(v, standard_matrix(family, rank))


def _matrix_presentation(v, m):
    """Variant v of the presentations over Coxeter matrix m."""
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
    # the key's length, four, is no presentation's
    chain = _memoized((args.family.upper(), args.variant, args.rank, args.max_cosets),
                      lambda: chains.Chain(args.family, args.variant, args.rank,
                                           args.max_cosets))
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

    p = sub.add_parser("order", help="group order by coset enumeration over a "
                                     "subgroup whose order its table certifies")
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
    # name -> the reader of that command's arguments, for _parse
    ap.readers = {name: _reader(name, p) for name, p in sub.choices.items()}
    return ap


def _reader(name, command):
    """A reader of the arguments after name that command declares: a
    function from them to the Namespace the full parser would return, or
    to None where it declines to read them.  It takes each token as an
    exact option string of a store or append action, followed by a value
    that does not begin with "-", which it runs through the action's type
    and choices, or of a store-const action, such as --enumerate, which
    takes no value.  The actions' defaults, then command's set_defaults,
    fill the rest, and each required action must appear.  It declines
    anything else: -h, an unknown or abbreviated option, --flag=value,
    "--", a missing value, a value the type or choices refuse, or a
    required option left out."""
    options, defaults = {}, {"command": name}
    for a in command._actions:
        if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
            defaults[a.dest] = a.default
        one_value = (type(a) in (argparse._StoreAction, argparse._AppendAction)
                     and a.nargs is None)
        if one_value or isinstance(a, argparse._StoreConstAction):
            options.update(dict.fromkeys(a.option_strings, a))
    for dest, value in command._defaults.items():
        defaults.setdefault(dest, value)
    required = {a for a in command._actions if a.required}

    def read(tokens):
        args, seen = argparse.Namespace(), set()
        values = vars(args)
        values.update(defaults)
        tokens = iter(tokens)
        for token in tokens:
            a = options.get(token)
            if a is None:
                return None
            seen.add(a)
            if a.nargs == 0:
                values[a.dest] = a.const
                continue
            value = next(tokens, "-")  # a missing value declines as "-" does
            if value.startswith("-"):
                return None
            if a.type is not None:
                try:
                    value = a.type(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if a.choices is not None and value not in a.choices:
                return None
            if type(a) is argparse._AppendAction:
                value = [*(values[a.dest] or ()), value]
            values[a.dest] = value
        return args if required <= seen else None
    return read


@functools.cache
def _parser():
    return build_parser()


def _parse(argv):
    """The arguments of argv, read once.  When argv[0] names a command, its
    reader reads the rest straight from the command's declared actions;
    when it names none, or the reader declines, argparse reads all of argv,
    so that help, usage, errors and exit codes are argparse's own."""
    ap = _parser()
    read = ap.readers.get(argv[0]) if argv else None
    args = read(argv[1:]) if read is not None else None
    return ap.parse_args(argv) if args is None else args


def main(argv=None):
    """Run one command and return its exit code.  The parser and its
    readers are built on the first call, not at import, and reused for
    the life of the process, as is the memo.  What a command built goes
    into the memo when the command returns; one that fails raises, and
    keeps nothing."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        code = args.func(args)
        _keep()
        return code
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
    finally:
        _built.clear()


if __name__ == "__main__":
    sys.exit(main())
