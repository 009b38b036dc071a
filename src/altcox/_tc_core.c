/* Compiled Todd-Coxeter core: a line-for-line port of _tc_py.enumerate_core,
whose docstring specifies both cores: the HLT strategy with its read-only
closure pass, the definition order, the coincidence handling, the
involution rule, the standardizing traversal and the return shapes:
(rows, ndef, parent, arrival), or (index, ndef, parent, cells) with
table=False.  The test suite asserts that both cores return identical
results.  rows, parent, arrival and cells are flat array('i') buffers of C
ints, with no Python object per cell, row, coset or arrival edge; cells is
a copy of the state block's first ndef+1 table rows.  Coset ids are C
ints, so the wrapper accepts caps up to INT_MAX - 2; table indices are
computed in size_t.  The loop holds the GIL and checks for signals every
SIGNAL_EVERY rows.

Memory is two blocks per call, a layout of this file alone and not part of
the transliteration.  The fixed block, allocated once the letters are
counted, holds the word offsets, col, inv, the words and the closure flags.
The state block holds the table, then parent, then the dead stack, nrows
rows each.  Like the pure core's table it starts with rows 0 and 1 and
doubles on demand up to the cap, so memory follows the cosets defined, not
the cap; and a doubling is one realloc, which no companion can block.  With
table=False it is shrunk to its first ndef+1 rows before they are copied.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CELL(tc, a, x) ((tc)->table[(size_t)(a) * (size_t)(tc)->ncols + (size_t)(x)])
#define SIGNAL_EVERY 4096

/* a negative result ends the run with the matching exception */
enum { DONE = 0, CAP = -1, SIGNALLED = -2, NOMEM = -3 };

static PyObject *CapExceeded;
static PyObject *zero;  /* array('i', [0]), repeated into each result buffer */

typedef struct {
    int *table;   /* nrows rows of ncols; 0 is an undefined entry */
    int *parent;  /* after table: union-find forest, entry c set when c is defined */
    int *dead;    /* after parent: stack of merged-away cosets awaiting processing */
    int *col;     /* col[x]: the column letter x reads, 2g for both letters of an involution g */
    int *inv;     /* inv[x]: the column of letter x's inverse, x ^ 1 or, for an involution, x */
    int ncols, cap, ndef, ndead, nrows;
} TC;

static int find(TC *tc, int c)
{
    int root = c, next;
    while (tc->parent[root] != root)
        root = tc->parent[root];
    while (tc->parent[c] != root) {
        next = tc->parent[c];
        tc->parent[c] = root;
        c = next;
    }
    return root;
}

/* Doubles the rows of the state block (a coset dies at most once, so dead
   needs no more), up to cap + 1: moves parent up past the new table rows
   and zeroes them.  Only define calls this, and the dead stack is empty
   outside coincidence, so dead is not moved. */
static int grow(TC *tc)
{
    size_t old = (size_t)tc->nrows, ncols = (size_t)tc->ncols;
    size_t rows = old * 2 < (size_t)tc->cap + 1 ? old * 2 : (size_t)tc->cap + 1;
    int *table = ncols + 2 <= SIZE_MAX / sizeof(int) / rows
                 ? realloc(tc->table, rows * (ncols + 2) * sizeof(int)) : NULL;
    if (!table) {
        PyErr_NoMemory();
        return NOMEM;
    }
    tc->table = table;
    tc->parent = memmove(table + rows * ncols, table + old * ncols, old * sizeof(int));
    tc->dead = tc->parent + rows;
    memset(table + old * ncols, 0, (rows - old) * ncols * sizeof(int));
    tc->nrows = (int)rows;
    return DONE;
}

static int define(TC *tc, int alpha, int x)
{
    if (tc->ndef >= tc->cap)
        return CAP;
    int beta = ++tc->ndef;
    if (beta == tc->nrows && grow(tc) == NOMEM)
        return NOMEM;
    tc->parent[beta] = beta;
    CELL(tc, alpha, x) = beta;
    CELL(tc, beta, tc->inv[x]) = alpha;
    return beta;
}

static void merge(TC *tc, int k, int l)
{
    k = find(tc, k);
    l = find(tc, l);
    if (k == l)
        return;
    if (k > l) { int t = k; k = l; l = t; }
    tc->parent[l] = k;
    tc->dead[tc->ndead++] = l;
}

static void coincidence(TC *tc, int alpha, int beta)
{
    merge(tc, alpha, beta);
    while (tc->ndead) {
        int gamma = tc->dead[--tc->ndead];
        for (int x = 0; x < tc->ncols; x++) {
            int delta = CELL(tc, gamma, x);
            if (!delta)
                continue;
            int y = tc->inv[x];
            CELL(tc, gamma, x) = 0;
            CELL(tc, delta, y) = 0;
            int mu = find(tc, gamma), nu = find(tc, delta);
            if (CELL(tc, mu, x))
                merge(tc, nu, CELL(tc, mu, x));
            else if (CELL(tc, nu, y))
                merge(tc, mu, CELL(tc, nu, y));
            else {
                CELL(tc, mu, x) = nu;
                CELL(tc, nu, y) = mu;
            }
        }
    }
}

static int scan_and_fill(TC *tc, int alpha, const int *word, Py_ssize_t len)
{
    int f = alpha, b = alpha;
    Py_ssize_t i = 0, j = len - 1;
    for (;;) {
        while (i <= j && CELL(tc, f, word[i])) {
            f = CELL(tc, f, word[i]);
            i++;
        }
        if (i > j) {
            if (f != b)
                coincidence(tc, f, b);
            return DONE;
        }
        while (j >= i && CELL(tc, b, tc->inv[word[j]])) {
            b = CELL(tc, b, tc->inv[word[j]]);
            j--;
        }
        if (j < i) {
            coincidence(tc, f, b);
            return DONE;
        }
        if (j == i) {
            CELL(tc, f, word[i]) = b;
            CELL(tc, b, tc->inv[word[i]]) = f;
            return DONE;
        }
        f = define(tc, f, word[i]);
        if (f < 0)
            return f;
        i++;
    }
}

/* Word k is words[off[k]:off[k + 1]]; the first nsub are subgroup words,
   the rest relators.  closed has one byte per word. */
static int hlt(TC *tc, const int *words, const Py_ssize_t *off,
               Py_ssize_t nsub, Py_ssize_t nwords, char *closed)
{
    int status;
    for (Py_ssize_t k = 0; k < nsub; k++)
        if ((status = scan_and_fill(tc, 1, words + off[k], off[k + 1] - off[k])) < 0)
            return status;

    for (int alpha = 1; alpha <= tc->ndef; alpha++) {
        if (alpha % SIGNAL_EVERY == 0 && PyErr_CheckSignals())
            return SIGNALLED;
        if (find(tc, alpha) != alpha)
            continue;
        /* closure pass: an undefined entry sends the walk to row 0, which
           is all zeros, so the walk needs no branch */
        for (Py_ssize_t k = nsub; k < nwords; k++) {
            int f = alpha;
            for (Py_ssize_t i = off[k]; i < off[k + 1]; i++)
                f = CELL(tc, f, words[i]);
            closed[k] = f == alpha;
        }
        for (Py_ssize_t k = nsub; k < nwords; k++) {
            if (closed[k])
                continue;
            if ((status = scan_and_fill(tc, alpha, words + off[k], off[k + 1] - off[k])) < 0)
                return status;
            if (find(tc, alpha) != alpha)
                break;
        }
        if (find(tc, alpha) == alpha)
            for (int x = 0; x < tc->ncols; x++)
                if (tc->col[x] == x && !CELL(tc, alpha, x)
                    && (status = define(tc, alpha, x)) < 0)
                    return status;
    }
    return DONE;
}

/* A new tuple of the words of subs then rels, each as a tuple of letters
   checked to be ints in [0, ncols), their total length in *letters; or
   NULL with an exception set.  The fixed block is sized from these
   tuples, the ones pack copies, so no word can change length in between. */
static PyObject *checked_words(PyObject *subs, PyObject *rels, int ncols,
                               Py_ssize_t *letters)
{
    Py_ssize_t nsub = PyTuple_GET_SIZE(subs), n = nsub + PyTuple_GET_SIZE(rels);
    PyObject *ws = PyTuple_New(n);
    for (Py_ssize_t k = 0; ws && k < n; k++) {
        PyObject *w = PySequence_Tuple(k < nsub ? PyTuple_GET_ITEM(subs, k)
                                                : PyTuple_GET_ITEM(rels, k - nsub));
        Py_ssize_t len = w ? PyTuple_GET_SIZE(w) : 0, i = 0;
        PyTuple_SET_ITEM(ws, k, w);
        for (int overflow; i < len; i++) {  /* an int beyond a long reads as -1 */
            PyObject *item = PyTuple_GET_ITEM(w, i);
            long x = PyLong_Check(item) ? PyLong_AsLongAndOverflow(item, &overflow) : -1;
            if (x < 0 || x >= ncols)
                break;
        }
        if (i < len)
            PyErr_Format(PyExc_ValueError, "word letters must be ints in [0, %d)", ncols);
        else if (len > PY_SSIZE_T_MAX / 8 - *letters)
            PyErr_NoMemory();
        else if (w) {
            *letters += len;
            continue;
        }
        Py_CLEAR(ws);
    }
    return ws;
}

/* letter i of a checked word w, and whether w is two equal letters */
#define LETTER(w, i) ((int)PyLong_AsLong(PyTuple_GET_ITEM((w), (i))))
#define SQUARE(w) (PyTuple_GET_SIZE(w) == 2 && LETTER(w, 0) == LETTER(w, 1))

/* Finds the involutions among the relators, all but the first nsub of the
   checked words ws, and fills tc->col and tc->inv; then copies each word
   through col to words, but for the squares among the relators: the n-th
   word copied to words[off[n]:off[n + 1]].  Returns the words copied. */
static Py_ssize_t pack(TC *tc, PyObject *ws, Py_ssize_t nsub, int *words, Py_ssize_t *off)
{
    Py_ssize_t n = 0;
    for (int x = 0; x < tc->ncols; x++) {
        tc->col[x] = x;
        tc->inv[x] = x ^ 1;
    }
    for (Py_ssize_t k = nsub; k < PyTuple_GET_SIZE(ws); k++)
        if (SQUARE(PyTuple_GET_ITEM(ws, k))) {
            int x = LETTER(PyTuple_GET_ITEM(ws, k), 0) & ~1;
            tc->col[x + 1] = tc->inv[x] = x;
        }
    off[0] = 0;
    for (Py_ssize_t k = 0; k < PyTuple_GET_SIZE(ws); k++) {
        PyObject *w = PyTuple_GET_ITEM(ws, k);
        if (k >= nsub && SQUARE(w))
            continue;
        off[n + 1] = off[n] + PyTuple_GET_SIZE(w);
        for (Py_ssize_t i = off[n]; i < off[n + 1]; i++)
            words[i] = tc->col[LETTER(w, i - off[n])];
        n++;
    }
    return n;
}

/* A new zeroed array('i') of n C ints, its buffer exported to *view for
   writing (the caller releases it), or NULL with an exception set. */
static PyObject *int_array(Py_ssize_t n, Py_buffer *view)
{
    PyObject *a = PySequence_Repeat(zero, n);
    if (a && PyObject_GetBuffer(a, view, PyBUF_WRITABLE) < 0)
        Py_CLEAR(a);
    return a;
}

/* A new array('i') copying the n C ints at src, or NULL with an exception
   set: the union-find forest, or the table's rows. */
static PyObject *copied(const int *src, Py_ssize_t n)
{
    Py_buffer view;
    PyObject *a = int_array(n, &view);
    if (a) {
        memcpy(view.buf, src, (size_t)n * sizeof(int));
        PyBuffer_Release(&view);
    }
    return a;
}

/* The standardization of _tc_py.enumerate_core on a completed table of
   `live` live cosets: number[c] is the new number of live coset c and
   order[k] the old id of new coset k, which arrived from coset arrival[2k]
   by generator arrival[2k+1].  Every live row is full and names live
   cosets only, so neither the traversal nor the rows need find.  Returns
   the core's (rows, ndef, parent, arrival), or NULL with an exception
   set. */
static PyObject *standardize(TC *tc, int live)
{
    int ngens = tc->ncols / 2, n = 1;
    size_t size = (size_t)tc->ndef + 1;
    int *number = calloc(2 * size, sizeof(int));  /* zeroed: no coset numbered */
    int *order = number + size;
    int *out, *via;  /* the rows buffer; via[2k], via[2k+1] is k's arrival */
    Py_buffer rv, av;
    PyObject *rows = NULL, *parent = NULL, *arrival = NULL, *result = NULL;
    if (!number) {
        PyErr_NoMemory();
        return NULL;
    }
    if (!(parent = copied(tc->parent, (Py_ssize_t)size)))
        goto done;
    if (!(rows = int_array(((Py_ssize_t)live + 1) * tc->ncols, &rv)))
        goto done;
    if (!(arrival = int_array(2 * ((Py_ssize_t)live + 1), &av)))
        goto release_rows;
    out = rv.buf;
    via = av.buf;

    number[1] = 1;
    order[1] = 1;
    /* every numbered coset is a distinct live root, so n stays <= live */
    for (int k = 1; k <= n; k++) {
        int c = order[k], first = k > 1 ? via[2 * k + 1] : ngens - 1;
        /* first is tried again in the descending sweep, where its target is
           already numbered */
        for (int i = ngens; i >= 0; i--) {
            int g = i == ngens ? first : i, d = CELL(tc, c, 2 * g);
            if (d && !number[d]) {
                number[d] = ++n;
                order[n] = d;
                via[2 * n] = k;
                via[2 * n + 1] = g;
            }
        }
    }
    if (n != live)
        PyErr_SetString(PyExc_AssertionError, "positive-letter traversal missed cosets");
    else {
        /* in ascending old id, so the table is read front to back */
        for (int c = 1; c <= tc->ndef; c++)
            if (tc->parent[c] == c) {
                int *row = out + (size_t)number[c] * tc->ncols;
                for (int x = 0; x < tc->ncols; x++)
                    row[x] = number[CELL(tc, c, tc->col[x])];
            }
        result = Py_BuildValue("OiOO", rows, tc->ndef, parent, arrival);
    }

    PyBuffer_Release(&av);
release_rows:
    PyBuffer_Release(&rv);
done:
    Py_XDECREF(rows);
    Py_XDECREF(parent);
    Py_XDECREF(arrival);
    free(number);
    return result;
}

static PyObject *enumerate_core(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"ncols", "relators", "subgroup_words", "cap",
                             "table", NULL};
    int ncols, overflow, table = 1, live = 0;
    PyObject *relators, *subgroup_words, *cap_arg;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOOO|p:enumerate_core", kwlist,
                                     &ncols, &relators, &subgroup_words, &cap_arg,
                                     &table))
        return NULL;
    long cap = PyLong_AsLongAndOverflow(cap_arg, &overflow);  /* -1 on overflow */
    if (cap == -1 && PyErr_Occurred())
        return NULL;
    if (cap < 1 || cap > INT_MAX - 2)
        return PyErr_Format(PyExc_ValueError,
                            "cap must be between 1 and %d", INT_MAX - 2);
    if (ncols < 2 || ncols % 2)
        return PyErr_Format(PyExc_ValueError,
                            "ncols must be a positive even number");

    Py_ssize_t letters = 0, *off = NULL;
    PyObject *subs = PySequence_Tuple(subgroup_words);
    PyObject *rels = subs ? PySequence_Tuple(relators) : NULL;
    PyObject *ws = rels ? checked_words(subs, rels, ncols, &letters) : NULL, *result = NULL;
    TC tc = {NULL, NULL, NULL, NULL, NULL, ncols, (int)cap, 1, 0, 2};
    if (!ws)
        goto done;
    Py_ssize_t nsub = PyTuple_GET_SIZE(subs), nwords = PyTuple_GET_SIZE(ws);
    /* the fixed block: off, col and inv, words, then hlt's closure flags
       (col and inv after the words, beside the flags, ran 5-10% slower) */
    off = malloc((size_t)(nwords + 1) * sizeof(Py_ssize_t)
                 + ((size_t)letters + 2 * (size_t)ncols) * sizeof(int) + (size_t)nwords);
    /* the state block: rows 0 and 1 of table, parent and dead */
    tc.table = calloc(2 * ((size_t)ncols + 2), sizeof(int));
    if (!off || !tc.table) {
        PyErr_NoMemory();
        goto done;
    }
    tc.col = (int *)(off + nwords + 1);
    tc.inv = tc.col + ncols;
    int *words = tc.inv + ncols;
    char *closed = (char *)(words + letters);
    tc.parent = tc.table + 2 * ncols;
    tc.parent[1] = 1;
    tc.dead = tc.parent + 2;
    nwords = pack(&tc, ws, nsub, words, off);

    switch (hlt(&tc, words, off, nsub, nwords, closed)) {
    case CAP:
        PyErr_SetNone(CapExceeded);
        break;
    case DONE:
        for (int c = 1; c <= tc.ndef; c++)
            live += tc.parent[c] == c;
        if (table)
            result = standardize(&tc, live);
        else {
            Py_ssize_t size = (Py_ssize_t)tc.ndef + 1;
            PyObject *parent = copied(tc.parent, size);
            /* once parent is copied, the block past row ndef is done
               with; giving it back before the copy keeps the call's peak
               memory down (a failed shrink leaves the block as it was) */
            int *rows = parent ? realloc(tc.table, (size_t)size * ncols * sizeof(int)) : NULL;
            if (rows)
                tc.table = rows;
            PyObject *cells = parent ? copied(tc.table, size * ncols) : NULL;
            result = cells ? Py_BuildValue("iiNN", live, tc.ndef, parent, cells) : NULL;
            if (!cells)
                Py_XDECREF(parent);
        }
        break;
    }  /* SIGNALLED, NOMEM: the exception is already set */

done:
    free(tc.table);
    free(off);
    Py_XDECREF(ws);
    Py_XDECREF(subs);
    Py_XDECREF(rels);
    return result;
}

static PyMethodDef methods[] = {
    {"enumerate_core", (PyCFunction)(void (*)(void))enumerate_core,
     METH_VARARGS | METH_KEYWORDS,
     "enumerate_core(ncols, relators, subgroup_words, cap, table=True)\n"
     "-> (rows, ndef, parent, arrival), or (index, ndef, parent, cells) with\n"
     "table=False\n\n"
     "Compiled twin of altcox._tc_py.enumerate_core."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "altcox._tc_core",
    "Compiled Todd-Coxeter core (HLT strategy).", -1, methods,
};

PyMODINIT_FUNC PyInit__tc_core(void)
{
    PyObject *py = PyImport_ImportModule("altcox._tc_py");
    if (!py)
        return NULL;
    Py_XSETREF(CapExceeded, PyObject_GetAttrString(py, "CapExceeded"));
    Py_DECREF(py);
    if (!CapExceeded)
        return NULL;
    PyObject *array = PyImport_ImportModule("array");
    if (!array)
        return NULL;
    Py_XSETREF(zero, PyObject_CallMethod(array, "array", "s(i)", "i", 0));
    Py_DECREF(array);
    if (!zero)
        return NULL;
    return PyModule_Create(&module);
}
