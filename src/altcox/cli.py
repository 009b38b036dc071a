"""Command-line front end: presentation builders, coset enumeration,
chain normal forms, and the verification catalog.

Exit codes: 0 ok, 2 usage error, 3 coset cap exceeded (by `enumerate`,
the one enumeration behind `nf`, or any of those behind `order`: over a
two-generator subgroup, a cyclic one and the trivial one, each run when
the one before certifies no order, and before them, for a cover counted
through its central quotient (see engine.order), those of the quotient;
``main`` alone turns the engine's CapExceeded into it), 4
verification failure (a check whose enumeration meets its cap fails).
A usage error is bad input (an argparse error such as a rank above
``coxeter.MAX_RANK``, an ``InputError`` or a file error) or running out
of memory; any other exception is a bug and ends in a
traceback.  A file write is atomic (temp file + rename, over a symlink's
target), except to a path that exists and is not a regular file, such as
a device or a FIFO, or a symlink to one, which is opened and written in
place; all output is byte-deterministic.

Each command is declared once, in ``_COMMANDS``: its help, its function
and its options.  An argv whose first token names a command is read
straight from that declaration when it is well formed: each option written
exactly, each value present and not beginning with "-" and passing the
option's type and choices, and each required option given.  Argparse is
imported, and its parser built from the same declaration, only to read any
other argv whole, so help, usage, errors and exit codes are its own.

One process may run many commands through ``main``, which keeps a memo
of what they build: the presentation of each catalog group, named by the
(variant, family, rank) of --variant, --family and --rank or by a cover
variant alone, and of each --presentation input, named by the file's
text, which is read on every command, so that an edited file is parsed
again; each with its engine encoding and order plan, and a cover's
proved central quotient (see `_certificate` and engine.order); and the
`nf` Chain of each (family, variant, rank, cap), made over the memo's
catalog group.  `verify` keeps each catalog group it names, covers
included, and builds nothing else; the `spinor-*` and `a5-cover-order`
checks order a new presentation of the kept cover, so each counts it on
its own path.  A value is kept when it is built, and is complete then: a
Chain is made with its tables, and the engine records what it derives
from a presentation only once it is worked out.  So a command
that fails keeps what it built before it failed, and nothing partial.
The memo keeps its values in least recently used order while their
weights, in relator letters (and a unit per 32 characters of a file's
text), table cells and sift points, sum to at most MEMO_BUDGET (2^16, 2
to 4 MB); a value heavier than that is not kept.  It never keeps a
--matrix input, which is read on every command, a table over a subgroup
or an order.  No output depends on what the memo holds.
The memo has no lock: ``main`` runs one command at a time.
"""

from __future__ import annotations

import errno
import functools
import os
import stat
import sys
import time
import types

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
_memo = {}  # key -> (weight, value), the least recently used first


def _memoized(key, build):
    """The value kept under key, now the most recently used, else build()'s,
    which is kept if it weighs at most MEMO_BUDGET, the least recently used
    then dropped until the weights sum to at most MEMO_BUDGET.  A value is
    complete when it is built, so its weight is final; only a miss evicts."""
    entry = _memo.pop(key, None)
    if entry is not None:
        _memo[key] = entry
        return entry[1]
    value = build()
    weight = _weight(value)
    if key[0] == "--presentation":  # the file's text, a unit per 32 characters
        weight += len(key[1]) // 32
    if weight <= MEMO_BUDGET:
        _memo[key] = (weight, value)
        total = sum(w for w, _ in _memo.values())
        while total > MEMO_BUDGET:
            total -= _memo.pop(next(iter(_memo)))[0]
    return value


def _weight(value):
    """A chain's Chain.weight, and a presentation's relator letters, twice
    over when it has a central generator.  What the engine keeps in a
    presentation's record (engine._kept) counts with its letters: the
    column encoding has as many, and the order plan no more on any catalog
    group.  A cover's record may hold its central quotient too
    (engine.order), with fewer letters and a record of its own; that counts
    before an order works it out, as a presentation kept by `present` may
    be ordered later.  So a value's weight is final when it is built."""
    if isinstance(value, chains.Chain):
        return value.weight()
    return sum(map(len, value.relators)) * (2 if value.central else 1)


def _build_presentation(args) -> Presentation:
    """The presentation the input flags name.  Every input flag given is
    read: the covers take none, --presentation takes no other and only the
    default --variant, and --matrix takes no --family or --rank.  A
    catalog group, named by the variant and any --family and --rank, goes
    through the memo, as does a --presentation file, by its text; a file
    is read on every call."""
    v = args.variant
    if v == "vv":
        if (args.family not in (None, "A", "a") or args.matrix is not None
                or args.presentation is not None):
            raise UsageError("vv variant is type A: it takes --rank and no "
                             "other --family, no --matrix or --presentation")
        if args.rank is None:
            raise UsageError("vv variant needs --rank")
        return _catalog(v, "A", args.rank)
    # a file that cannot be read is reported before a clash of flags
    matrix, presentation = _read(args.matrix), _read(args.presentation)
    given = [f"--{k}" for k in ("family", "rank", "matrix", "presentation")
             if getattr(args, k) is not None]
    if v.endswith("-cover"):
        if given:
            raise UsageError(f"variant {v!r} takes no input flag, got "
                             + " ".join(given))
        return _catalog(v, None, None)
    if presentation is not None:
        if len(given) > 1 or v != "coxeter":
            raise UsageError("--presentation takes no other input flag "
                             "and no --variant")
        return _memoized(("--presentation", presentation),
                         lambda: Presentation.from_json(presentation))
    if matrix is not None:
        if len(given) > 1:
            raise UsageError("--matrix takes no --family or --rank")
    elif args.family and args.rank is not None:
        return _catalog(v, args.family.upper(), args.rank)
    if v == "carmichael":
        raise UsageError("variant 'carmichael' needs --family and --rank; "
                         "it has no matrix form")
    if matrix is None:
        raise UsageError("need --family and --rank, or --matrix")
    return _matrix_presentation(v, CoxeterMatrix.from_json(matrix))


def _catalog(v, family, rank):
    """The catalog group _catalog_presentation builds, through the memo
    under the key (v, family, rank)."""
    return _memoized((v, family, rank), lambda: _catalog_presentation(v, family, rank))


def _catalog_presentation(v, family, rank):
    """The catalog group variant v names with an upper-case family and a
    rank, or alone for a cover: the one builder of the commands, `nf`'s
    chains and `verify`."""
    if v.endswith("-cover"):
        return presentations.universal_extension(v[:2].upper())
    if v == "vv":
        return presentations.vv_presentation(rank)
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
    variant, _, style = v.partition("-plus-")
    if not style:
        return presentations.spinor_presentation(m, variant)
    return presentations.spinor_plus_presentation(m, style, variant)


def _rank(text):
    rank = int(text)
    if rank > MAX_RANK:
        import argparse  # for the error it prints; a valid rank needs none
        raise argparse.ArgumentTypeError(f"rank {rank} above {MAX_RANK}")
    return rank


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


def _certificate(args, p):
    """For p a catalog spinor cover, named by a tilde variant with --family
    and --rank, engine.order's certificate: a function of no arguments that
    returns whether p's Clifford images (oracle.clifford_images), elements
    kept up to a positive scalar, send every relator of p to the identity
    (oracle.verify_hom) and its central generator elsewhere (a cover's z
    goes to -1).  They then define a homomorphism in which z is not 1.  The
    images are built when it is called, which order does at most once.
    Else None.  _build_presentation has refused any other input flag beside
    --family and --rank."""
    if not (args.variant.startswith("tilde") and args.family and args.rank is not None):
        return None

    def certificate():
        images = oracle.clifford_images(args.family.upper(), args.variant, args.rank)
        return oracle.verify_hom(p, images) and not any(
            images[p.gen_index(name)].is_identity() for name, _ in p.central)
    return certificate


def cmd_order(args):
    p = _build_presentation(args)
    _emit(f"{engine.order(p, args.max_cosets, _certificate(args, p))}\n", args.output)
    return EXIT_OK


def cmd_nf(args):
    if args.enumerate and args.word is not None:  # the word would go unread
        raise UsageError("nf takes --word or --enumerate, not both")
    family = args.family.upper()
    p = _catalog(args.variant, family, args.rank)  # refuses a bad triple
    if not args.enumerate and args.word is None:  # "" is the identity, like "1"
        raise UsageError("nf needs --word or --enumerate")
    w = None if args.enumerate else parse_word(args.word, p)
    # the key's length, four, is no presentation's; a chain enumerates its
    # table when it is made, so only after the input has been read
    chain = _memoized((family, args.variant, args.rank, args.max_cosets),
                      lambda: chains.Chain(p, family, args.max_cosets))
    if args.enumerate:
        lines = []
        for d in chain.enumerate_elements():
            lines.append(" | ".join(render_word(f, p) for f in d))
        _emit("\n".join(lines) + "\n", args.output)
        return EXIT_OK
    d = chain.decompose(w)
    _emit(" | ".join(render_word(f, p) for f in d) + "\n", args.output)
    return EXIT_OK


def _images(family, variant, rank):
    p = _catalog(variant, family, rank)
    images = oracle.standard_images(family, variant, rank)
    if not oracle.verify_hom(p, images):
        return False
    return (oracle.generated_order(images)
            == (engine.order(p) if variant == "coxeter"
                else oracle.alternating_order(family, rank)))


def _orders(family, rank):
    want = oracle.alternating_order(family, rank)
    return all(engine.order(_catalog(v, family, rank)) == want
               for v in ("carmichael", "bourbaki", "edge"))


def _unkept(p):
    """A new presentation with p's generators, relators and central ones,
    and an empty engine record, so that an order counts it on its own path,
    with no quotient that an earlier order kept on p."""
    return Presentation(p.generators, p.relators, p.central)


def _spinor(family, rank):
    cover = _unkept(_catalog("tilde-plus-edge", family, rank))
    return engine.order(cover) == 2 * oracle.alternating_order(family, rank)


def _vv_equivalence():
    p_vv = _catalog("vv", "A", 4)
    p_edge = _catalog("edge", "A", 4)
    ident = (Word.gen(0), Word.gen(1), Word.gen(2))
    return (presentations.GroupHom(p_vv, p_edge, ident).verify()
            and presentations.GroupHom(p_edge, p_vv, ident).verify())


def _artin_braid():
    """Whether the A edge images of ranks 3 to 7, r1^-1, r2, r3^-1, ...
    with every other one inverted, satisfy the braid relations of
    consecutive ones: the relators of a presentation over them, which
    oracle.verify_hom evaluates."""
    r = [Word.gen(k, 1 if k % 2 else -1) for k in range(6)]
    braids = [a * b * a * (b * a * b).inverse() for a, b in zip(r, r[1:])]
    return all(oracle.verify_hom(Presentation([f"r{k}" for k in range(1, n)], braids[:n - 2]),
                                 oracle.standard_images("A", "edge", n))
               for n in range(3, 8))


def _spinor_iso():
    fwd, bwd = presentations.spinor_iso(_catalog("tilde-plus-edge", "A", 3),
                                        _catalog("tilde-prime-plus-edge", "A", 3))
    rt = engine.enumerate(fwd.target, ())
    rs = engine.enumerate(bwd.target, ())
    return (fwd.verify(rt) and bwd.verify(rs)
            and presentations.is_identity_hom(presentations.compose(fwd, bwd), rs))


def _a5_cover():
    # A5+ is the even subgroup of S6, order 360; kernel C2 x C3
    return engine.order(_unkept(_catalog("a5-cover", None, None)),
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
        try:
            ok = thunk()
        except engine.CapExceeded:  # every check's groups are finite
            ok = False
        if args.timings:
            sys.stderr.write(f"{name} {(time.perf_counter() - start) * 1e3:.3f}\n")
        failures += not ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_VERIFY if failures else EXIT_OK


_FAMILIES = ("A", "B", "D", "a", "b", "d")
_CAP = ("--max-cosets", {"type": int, "default": engine.DEFAULT_CAP})
_INPUT = (("--family", {"choices": _FAMILIES}),
          ("--rank", {"type": _rank}),
          ("--matrix", {"help": "Coxeter matrix JSON file"}),
          ("--presentation", {"help": "presentation JSON file"}),
          ("--variant", {"choices": _VARIANTS, "default": "coxeter"}),
          ("--output", {"help": "write to file instead of stdout"}))

# name -> (help, function, options): each option its option string and the
# keyword arguments of argparse's add_argument, of which _reader reads
# type, choices, default, required and the actions store_true and append
_COMMANDS = {
    "present": ("build a presentation as JSON", cmd_present, _INPUT),
    "enumerate": ("coset enumeration over a subgroup", cmd_enumerate, _INPUT + (
        ("--subgroup", {"action": "append",
                        "help": "subgroup generator word (repeatable)"}),
        ("--subgroup-gens", {"type": int,
                             "help": "use the first K generators as the subgroup"}),
        _CAP,
        ("--table", {"help": "write coset table CSV here"}),
        ("--dot", {"help": "write Schreier graph DOT here"}),
        ("--reps", {"help": "write representative words here"}))),
    "order": ("group order by coset enumeration over a subgroup whose order "
              "its table certifies", cmd_order, _INPUT + (_CAP,)),
    "nf": ("chain normal forms", cmd_nf, (
        ("--family", {"required": True, "choices": _FAMILIES}),
        ("--variant", {"required": True, "choices": ("carmichael", "bourbaki", "edge")}),
        ("--rank", {"type": _rank, "required": True}),
        ("--word", {"help": "word to decompose"}),
        ("--enumerate", {"action": "store_true", "help": "dump every normal form"}),
        _CAP,
        ("--output", {}))),
    "verify": ("run the verification catalog", cmd_verify, (
        ("--only", {"help": "substring filter on check names"}),
        ("--timings", {"action": "store_true",
                       "help": "write each check's wall time in ms to stderr"}),
        ("--output", {}))),
}


def build_parser():
    """The argparse parser of _COMMANDS, for help, usage and errors."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="altcox",
        description="presentations, coset enumeration and normal forms for "
                    "alternating subgroups of Coxeter groups")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for option, kwargs in options:
            p.add_argument(option, **kwargs)
        p.set_defaults(func=func)
    return ap


@functools.cache
def _reader(name):
    """A reader of the arguments after command name: a function from them
    to the namespace the parser would return, or to None where it declines
    to read them.  It takes each token as an option string of the command,
    exactly, followed by a value that does not begin with "-", which it
    runs through the option's type and choices, or of a store_true option,
    such as --enumerate, which takes no value.  The defaults fill the rest,
    and each required option must appear.  It declines anything else: -h,
    an unknown or abbreviated option, --flag=value, "--", a missing value,
    a value the type raises on or the choices refuse, or a required option
    left out."""
    _, func, options = _COMMANDS[name]
    defaults, kinds, required = {"command": name, "func": func}, {}, set()
    for option, kwargs in options:
        dest = option[2:].replace("-", "_")  # as argparse names it
        action = kwargs.get("action")
        defaults[dest] = kwargs.get("default", False if action == "store_true" else None)
        kinds[option] = (dest, action, kwargs.get("type"), kwargs.get("choices"))
        if kwargs.get("required"):
            required.add(dest)

    def read(tokens):
        args, seen = types.SimpleNamespace(**defaults), set()
        values = vars(args)
        tokens = iter(tokens)
        for token in tokens:
            kind = kinds.get(token)
            if kind is None:
                return None
            dest, action, convert, choices = kind
            seen.add(dest)
            if action == "store_true":
                values[dest] = True
                continue
            value = next(tokens, "-")  # a missing value declines as "-" does
            if value.startswith("-"):
                return None
            if convert is not None:
                try:
                    value = convert(value)
                except Exception:  # argparse reads argv again: it reports or raises it
                    return None
            if choices is not None and value not in choices:
                return None
            if action == "append":
                value = [*(values[dest] or ()), value]
            values[dest] = value
        return args if required <= seen else None
    return read


@functools.cache
def _parser():
    return build_parser()


def _parse(argv):
    """The arguments of argv, read once.  When argv[0] names a command, its
    reader reads the rest; when it names none, or the reader declines,
    argparse reads all of argv, so that help, usage, errors and exit codes
    are argparse's own."""
    args = _reader(argv[0])(argv[1:]) if argv and argv[0] in _COMMANDS else None
    return _parser().parse_args(argv) if args is None else args


def main(argv=None):
    """Run one command and return its exit code.  A command's reader is
    worked out on its first use, and argparse's parser on the first argv
    that a reader declines, not at import; both are reused for the life of
    the process, as is the memo, which keeps what a command builds as it
    builds it, whether or not the command then fails."""
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
