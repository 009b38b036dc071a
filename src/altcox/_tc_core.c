/* Compiled Todd-Coxeter core: a line-for-line port of _tc_py.enumerate_core.

Same HLT strategy, same definition order, same coincidence handling, and
the same standardizing traversal, which _tc_py.enumerate_core's docstring
specifies; the test suite asserts that both cores return identical
(rows, ndef, parent, arrival).  rows, parent and arrival are flat
array('i') buffers written as C ints, with no Python object per cell,
row, coset or arrival edge.  Coset ids are C ints, so the wrapper accepts
caps up to INT_MAX - 2; table indices are computed in size_t.  As in the
pure core, the table starts with rows 0 and 1 and doubles on demand up to
the cap, so memory follows the cosets defined, not the cap.  The loop
holds the GIL and checks for signals every SIGNAL_EVERY rows, so
Ctrl-C stops it.
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
    int *parent;  /* union-find forest over coset ids; entry c set when c is defined */
    int *dead;    /* stack of merged-away cosets whose rows await processing */
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

/* Doubles the rows of table, parent and dead (a coset dies at most once),
   up to cap + 1 rows; the new table rows are zeroed. */
static int grow(TC *tc)
{
    size_t old = (size_t)tc->nrows, ncols = (size_t)tc->ncols;
    size_t rows = old * 2 < (size_t)tc->cap + 1 ? old * 2 : (size_t)tc->cap + 1;
    int *table = ncols <= SIZE_MAX / sizeof(int) / rows
                 ? realloc(tc->table, rows * ncols * sizeof(int)) : NULL;
    if (table)
        tc->table = table;
    int *parent = table ? realloc(tc->parent, rows * sizeof(int)) : NULL;
    if (parent)
        tc->parent = parent;
    int *dead = parent ? realloc(tc->dead, rows * sizeof(int)) : NULL;
    if (!dead) {
        PyErr_NoMemory();
        return NOMEM;
    }
    tc->dead = dead;
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
    CELL(tc, beta, x ^ 1) = alpha;
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
            CELL(tc, gamma, x) = 0;
            CELL(tc, delta, x ^ 1) = 0;
            int mu = find(tc, gamma), nu = find(tc, delta);
            if (CELL(tc, mu, x))
                merge(tc, nu, CELL(tc, mu, x));
            else if (CELL(tc, nu, x ^ 1))
                merge(tc, mu, CELL(tc, nu, x ^ 1));
            else {
                CELL(tc, mu, x) = nu;
                CELL(tc, nu, x ^ 1) = mu;
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
        while (j >= i && CELL(tc, b, word[j] ^ 1)) {
            b = CELL(tc, b, word[j] ^ 1);
            j--;
        }
        if (j < i) {
            coincidence(tc, f, b);
            return DONE;
        }
        if (j == i) {
            CELL(tc, f, word[i]) = b;
            CELL(tc, b, word[i] ^ 1) = f;
            return DONE;
        }
        f = define(tc, f, word[i]);
        if (f < 0)
            return f;
        i++;
    }
}

/* Word k is words[off[k]:off[k + 1]]; the first nsub are subgroup words,
   the rest relators. */
static int hlt(TC *tc, const int *words, const Py_ssize_t *off,
               Py_ssize_t nsub, Py_ssize_t nwords)
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
        for (Py_ssize_t k = nsub; k < nwords; k++) {
            if ((status = scan_and_fill(tc, alpha, words + off[k], off[k + 1] - off[k])) < 0)
                return status;
            if (find(tc, alpha) != alpha)
                break;
        }
        if (find(tc, alpha) == alpha)
            for (int x = 0; x < tc->ncols; x++)
                if (!CELL(tc, alpha, x) && (status = define(tc, alpha, x)) < 0)
                    return status;
    }
    return DONE;
}

/* Appends the column words of the tuple seq to *words (grown as needed,
   *size ints allocated) and their end offsets to off[*nwords + 1 ...]. */
static int pack(PyObject *seq, int ncols, int **words, Py_ssize_t *size,
                Py_ssize_t *off, Py_ssize_t *nwords)
{
    for (Py_ssize_t k = 0; k < PyTuple_GET_SIZE(seq); k++) {
        PyObject *w = PySequence_Fast(PyTuple_GET_ITEM(seq, k),
                                      "a word must be a sequence of columns");
        if (!w)
            return -1;
        Py_ssize_t len = PySequence_Fast_GET_SIZE(w), at = off[*nwords];
        if (at + len > *size) {
            int *grown = realloc(*words, 2 * (size_t)(at + len) * sizeof(int));
            if (!grown) {
                Py_DECREF(w);
                PyErr_NoMemory();
                return -1;
            }
            *words = grown;
            *size = 2 * (at + len);
        }
        for (Py_ssize_t i = 0; i < len; i++) {
            PyObject *item = PySequence_Fast_GET_ITEM(w, i);
            long x = PyLong_Check(item) ? PyLong_AsLong(item) : -1;
            if (x < 0 || x >= ncols) {
                Py_DECREF(w);
                if (!PyErr_Occurred())
                    PyErr_Format(PyExc_ValueError,
                                 "word letters must be ints in [0, %d)", ncols);
                return -1;
            }
            (*words)[at + i] = (int)x;
        }
        Py_DECREF(w);
        off[++*nwords] = at + len;
    }
    return 0;
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

/* The standardization of _tc_py.enumerate_core on a completed table:
   number[c] is the new number of live coset c and order[k] the old id of
   new coset k, which arrived from coset arrival[2k] by generator
   arrival[2k+1].  Returns the core's (rows, ndef, parent, arrival), or
   NULL with an exception set. */
static PyObject *standardize(TC *tc)
{
    int ngens = tc->ncols / 2, n = 1, live = 0;
    for (int c = 1; c <= tc->ndef; c++)
        live += tc->parent[c] == c;
    size_t size = (size_t)tc->ndef + 1;
    int *number = calloc(2 * size, sizeof(int));  /* zeroed: no coset numbered */
    int *order = number + size;
    int *out, *via;  /* the rows buffer; via[2k], via[2k+1] is k's arrival */
    Py_buffer rv, pv, av;
    PyObject *rows = NULL, *parent = NULL, *arrival = NULL, *result = NULL;
    if (!number) {
        PyErr_NoMemory();
        return NULL;
    }
    if (!(rows = int_array(((Py_ssize_t)live + 1) * tc->ncols, &rv)))
        goto done;
    if (!(parent = int_array((Py_ssize_t)size, &pv)))
        goto release_rows;
    if (!(arrival = int_array(2 * ((Py_ssize_t)live + 1), &av)))
        goto release_parent;
    out = rv.buf;
    via = av.buf;
    memcpy(pv.buf, tc->parent, size * sizeof(int));

    number[1] = 1;
    order[1] = 1;
    /* every numbered coset is a distinct live root, so n stays <= live */
    for (int k = 1; k <= n; k++) {
        int c = order[k], first = k > 1 ? via[2 * k + 1] : ngens - 1;
        /* first is tried again in the descending sweep, where its target is
           already numbered */
        for (int i = ngens; i >= 0; i--) {
            int g = i == ngens ? first : i, d = CELL(tc, c, 2 * g);
            if (d) {
                d = find(tc, d);
                if (!number[d]) {
                    number[d] = ++n;
                    order[n] = d;
                    via[2 * n] = k;
                    via[2 * n + 1] = g;
                }
            }
        }
    }
    if (n != live)
        PyErr_SetString(PyExc_AssertionError, "positive-letter traversal missed cosets");
    else {
        for (int k = 1; k <= n; k++)
            for (int x = 0; x < tc->ncols; x++) {
                int d = CELL(tc, order[k], x);
                out[(size_t)k * tc->ncols + x] = d ? number[find(tc, d)] : 0;
            }
        result = Py_BuildValue("OiOO", rows, tc->ndef, parent, arrival);
    }

    PyBuffer_Release(&av);
release_parent:
    PyBuffer_Release(&pv);
release_rows:
    PyBuffer_Release(&rv);
done:
    Py_XDECREF(rows);
    Py_XDECREF(parent);
    Py_XDECREF(arrival);
    free(number);
    return result;
}

static PyObject *enumerate_core(PyObject *self, PyObject *args)
{
    int ncols, cap;
    PyObject *relators, *subgroup_words;
    if (!PyArg_ParseTuple(args, "iOOi:enumerate_core", &ncols, &relators,
                          &subgroup_words, &cap))
        return NULL;
    if (cap < 1 || cap > INT_MAX - 2)
        return PyErr_Format(PyExc_ValueError,
                            "cap must be between 1 and %d", INT_MAX - 2);
    if (ncols < 2 || ncols % 2)
        return PyErr_Format(PyExc_ValueError,
                            "ncols must be a positive even number");

    PyObject *subs = PySequence_Tuple(subgroup_words);
    PyObject *rels = subs ? PySequence_Tuple(relators) : NULL;
    PyObject *result = NULL;
    TC tc = {NULL, NULL, NULL, ncols, cap, 1, 0, 2};
    int *words = NULL;
    Py_ssize_t size = 64, nwords = 0, nsub = 0, *off = NULL;
    if (!rels)
        goto done;
    words = malloc(size * sizeof(int));
    off = malloc((PyTuple_GET_SIZE(subs) + PyTuple_GET_SIZE(rels) + 1) * sizeof(Py_ssize_t));
    if (!words || !off) {
        PyErr_NoMemory();
        goto done;
    }
    off[0] = 0;
    if (pack(subs, ncols, &words, &size, off, &nwords) < 0)
        goto done;
    nsub = nwords;
    if (pack(rels, ncols, &words, &size, off, &nwords) < 0)
        goto done;

    tc.table = calloc(2 * (size_t)ncols, sizeof(int));
    tc.parent = malloc(2 * sizeof(int));
    tc.dead = malloc(2 * sizeof(int));
    if (!tc.table || !tc.parent || !tc.dead) {
        PyErr_NoMemory();
        goto done;
    }
    tc.parent[0] = 0;
    tc.parent[1] = 1;

    switch (hlt(&tc, words, off, nsub, nwords)) {
    case CAP:
        PyErr_SetNone(CapExceeded);
        break;
    case DONE:
        result = standardize(&tc);
        break;
    }  /* SIGNALLED, NOMEM: the exception is already set */

done:
    free(tc.table);
    free(tc.parent);
    free(tc.dead);
    free(words);
    free(off);
    Py_XDECREF(subs);
    Py_XDECREF(rels);
    return result;
}

static PyMethodDef methods[] = {
    {"enumerate_core", enumerate_core, METH_VARARGS,
     "enumerate_core(ncols, relators, subgroup_words, cap) -> (rows, ndef, parent, arrival)\n\n"
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
