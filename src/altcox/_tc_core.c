/* Compiled Todd-Coxeter core: a line-for-line port of _tc_py.enumerate_core.

Same HLT strategy, same definition order, same coincidence handling; the
test suite asserts that both cores return identical (table, ndef, parent).
Coset ids are C ints, so the wrapper accepts caps up to INT_MAX - 2 (ids
reach cap + 1); table indices are computed in size_t.  Rows are allocated
for the whole cap but zeroed by calloc and written only as cosets are
defined, so untouched pages cost no memory.  The loop holds the GIL and
checks for signals every SIGNAL_EVERY rows, so Ctrl-C stops it.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <stdlib.h>

#define CELL(tc, a, x) ((tc)->table[(size_t)(a) * (size_t)(tc)->ncols + (size_t)(x)])
#define SIGNAL_EVERY 4096

enum { DONE = 0, CAP = -1, SIGNALLED = -2 };

static PyObject *CapExceeded;

typedef struct {
    int *table;   /* (cap + 2) rows of ncols; 0 is an undefined entry */
    int *parent;  /* union-find forest over coset ids; entry c set when c is defined */
    int *dead;    /* stack of merged-away cosets whose rows await processing */
    int ncols, cap, ndef, ndead;
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

static int define(TC *tc, int alpha, int x)
{
    if (tc->ndef >= tc->cap)
        return CAP;
    int beta = ++tc->ndef;
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
        if (f == CAP)
            return CAP;
        i++;
    }
}

/* Word k is words[off[k]:off[k + 1]]; the first nsub are subgroup words,
   the rest relators. */
static int hlt(TC *tc, const int *words, const Py_ssize_t *off,
               Py_ssize_t nsub, Py_ssize_t nwords)
{
    for (Py_ssize_t k = 0; k < nsub; k++)
        if (scan_and_fill(tc, 1, words + off[k], off[k + 1] - off[k]) == CAP)
            return CAP;

    for (int alpha = 1; alpha <= tc->ndef; alpha++) {
        if (alpha % SIGNAL_EVERY == 0 && PyErr_CheckSignals())
            return SIGNALLED;
        if (find(tc, alpha) != alpha)
            continue;
        for (Py_ssize_t k = nsub; k < nwords; k++) {
            if (scan_and_fill(tc, alpha, words + off[k], off[k + 1] - off[k]) == CAP)
                return CAP;
            if (find(tc, alpha) != alpha)
                break;
        }
        if (find(tc, alpha) == alpha)
            for (int x = 0; x < tc->ncols; x++)
                if (!CELL(tc, alpha, x) && define(tc, alpha, x) == CAP)
                    return CAP;
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

static PyObject *int_list(const int *a, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    for (Py_ssize_t i = 0; list && i < n; i++) {
        PyObject *v = PyLong_FromLong(a[i]);
        if (!v) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, i, v);
    }
    return list;
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
    TC tc = {NULL, NULL, NULL, ncols, cap, 1, 0};
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

    size_t rows = (size_t)cap + 2;  /* calloc checks the product with sizeof(int) */
    tc.table = (size_t)ncols <= SIZE_MAX / rows ? calloc(rows * ncols, sizeof(int)) : NULL;
    tc.parent = malloc(rows * sizeof(int));
    tc.dead = malloc(rows * sizeof(int));
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
    case DONE: {
        PyObject *table = int_list(tc.table, (Py_ssize_t)(tc.ndef + 1) * ncols);
        PyObject *parent = table ? int_list(tc.parent, tc.ndef + 1) : NULL;
        if (parent)
            result = Py_BuildValue("NiN", table, tc.ndef, parent);
        else
            Py_XDECREF(table);
        break;
    }
    }  /* SIGNALLED: the signal handler's exception is already set */

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
     "enumerate_core(ncols, relators, subgroup_words, cap) -> (table, ndef, parent)\n\n"
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
    return PyModule_Create(&module);
}
