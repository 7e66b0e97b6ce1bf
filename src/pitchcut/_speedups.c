/* Compiled int64 versions of the three DP kernels.

   Mirror images of _kernels_py: the same recurrences and the same
   tie-breaks, so the reconstructed index sets are equal to the pure
   Python ones.  The dispatch layer in kernels.py calls in here only
   when every intermediate value provably fits in a signed 64-bit
   integer.  What this module checks itself is memory safety: sequence
   items must be ints, an item that would index outside a table is
   refused, and a table whose byte size does not fit in size_t raises
   MemoryError instead of wrapping round to a small block.

   kc_best_subset uses __builtin_ctzll, so the module needs GCC or
   Clang; setup.py marks the extension optional, and without it
   kernels.py runs the Python fallbacks. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError,
                 "%s() takes exactly %zd arguments (%zd given)",
                 name, want, nargs);
    return 0;
}

/* The first n items of seq, which must be ints, as a new array that the
   caller frees with PyMem_Free; NULL with an exception set on failure. */
static long long *
int64_array(PyObject *seq, Py_ssize_t n, const char *name)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    if (fast == NULL)
        return NULL;
    long long *out = NULL;
    if (PySequence_Fast_GET_SIZE(fast) < n) {
        PyErr_Format(PyExc_IndexError, "%s has fewer than %zd items", name, n);
        goto done;
    }
    out = PyMem_New(long long, n);
    if (out == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        /* only ints: converting anything else could run Python code
           that changes the sequence under items */
        if (!PyLong_Check(items[i])) {
            PyErr_Format(PyExc_TypeError, "%s items must be int, not %.100s",
                         name, Py_TYPE(items[i])->tp_name);
            goto fail;
        }
        out[i] = PyLong_AsLongLong(items[i]);
        if (out[i] == -1 && PyErr_Occurred())
            goto fail;
    }
    goto done;
fail:
    PyMem_Free(out);
    out = NULL;
done:
    Py_DECREF(fast);
    return out;
}

/* Refuse negative entries: the DPs index tables by them. */
static int
check_nonnegative(const long long *v, Py_ssize_t n, const char *name)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        if (v[i] < 0) {
            PyErr_Format(PyExc_ValueError, "%s items must be nonnegative",
                         name);
            return 0;
        }
    }
    return 1;
}

/* A rows x cols table of long long, or NULL with MemoryError set.  The
   byte size is checked against SIZE_MAX before it is computed. */
static long long *
alloc_table(Py_ssize_t rows, unsigned long long cols)
{
    if (cols > SIZE_MAX / sizeof(long long) / (size_t)rows)
        return (long long *)PyErr_NoMemory();
    long long *t = PyMem_Malloc((size_t)rows * (size_t)cols
                                * sizeof(long long));
    if (t == NULL)
        PyErr_NoMemory();
    return t;
}

/* (value, chosen) with chosen the tuple of the k indices in idx, or
   (None, ()) when found is false. */
static PyObject *
pack(int found, long long value, const Py_ssize_t *idx, Py_ssize_t k)
{
    PyObject *chosen = PyTuple_New(found ? k : 0);
    if (chosen == NULL)
        return NULL;
    for (Py_ssize_t j = 0; found && j < k; j++) {
        PyObject *item = PyLong_FromSsize_t(idx[j]);
        if (item == NULL) {
            Py_DECREF(chosen);
            return NULL;
        }
        PyTuple_SET_ITEM(chosen, j, item);
    }
    if (!found)
        return Py_BuildValue("(ON)", Py_None, chosen);
    return Py_BuildValue("(LN)", value, chosen);
}

PyDoc_STRVAR(min_cover_solve_doc,
"min_cover_solve(r, obj, need)\n--\n\n"
"Min-cost cover DP; see _kernels_py.min_cover_solve.");

static PyObject *
min_cover_solve(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (!check_nargs("min_cover_solve", nargs, 3))
        return NULL;
    long long need = PyLong_AsLongLong(args[2]);
    if (need == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t n = PySequence_Size(args[0]);
    if (n < 0)
        return NULL;
    if (need <= 0)
        return pack(1, 0, NULL, 0);

    PyObject *result = NULL;
    long long *oc = NULL, *f = NULL;
    Py_ssize_t *idx = NULL;
    long long *rc = int64_array(args[0], n, "r");
    if (rc == NULL || !check_nonnegative(rc, n, "r"))
        goto done;
    oc = int64_array(args[1], n, "obj");
    if (oc == NULL)
        goto done;
    /* full table kept for reconstruction: n+1 rows of need+1 cells */
    size_t w = (size_t)need + 1;
    f = alloc_table(n + 1, (unsigned long long)need + 1);
    if (f == NULL)
        goto done;
    idx = PyMem_New(Py_ssize_t, n);
    if (idx == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    long long inf = 1;
    for (Py_ssize_t i = 0; i < n; i++)
        inf += oc[i];
    long long *last = f + (size_t)n * w;
    last[0] = 0;
    for (long long s = 1; s <= need; s++)
        last[s] = inf;
    for (Py_ssize_t i = n - 1; i >= 0; i--) {
        long long *cur = f + (size_t)i * w;
        const long long *nxt = cur + w;
        long long ri = rc[i], oi = oc[i];
        /* covers s <= r_i take item i alone, as nxt[0] is 0 */
        long long split = ri < need ? ri : need;
        cur[0] = 0;
        for (long long s = 1; s <= split; s++)
            cur[s] = oi < nxt[s] ? oi : nxt[s];
        for (long long s = split + 1; s <= need; s++) {
            long long take = oi + nxt[s - ri];
            cur[s] = take < nxt[s] ? take : nxt[s];
        }
    }

    long long value = f[need];
    Py_ssize_t k = 0;
    if (value < inf) {
        /* prefer taking i: among optima this yields the lex-smallest set */
        long long s = need;
        for (Py_ssize_t i = 0; i < n && s != 0; i++) {
            const long long *row = f + (size_t)i * w;
            long long s2 = s > rc[i] ? s - rc[i] : 0;
            if (oc[i] + row[w + (size_t)s2] == row[s]) {
                idx[k++] = i;
                s = s2;
            }
        }
    }
    result = pack(value < inf, value, idx, k);
done:
    PyMem_Free(rc);
    PyMem_Free(oc);
    PyMem_Free(f);
    PyMem_Free(idx);
    return result;
}

PyDoc_STRVAR(max_profit_solve_doc,
"max_profit_solve(cost, r, budget, target)\n--\n\n"
"Budget-indexed max-profit DP; see _kernels_py.max_profit_solve.");

static PyObject *
max_profit_solve(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (!check_nargs("max_profit_solve", nargs, 4))
        return NULL;
    long long budget = PyLong_AsLongLong(args[2]);
    if (budget == -1 && PyErr_Occurred())
        return NULL;
    long long target = PyLong_AsLongLong(args[3]);
    if (target == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t n = PySequence_Size(args[0]);
    if (n < 0)
        return NULL;

    PyObject *result = NULL;
    long long *rc = NULL, *g = NULL;
    Py_ssize_t *idx = NULL;
    long long *cc = int64_array(args[0], n, "cost");
    if (cc == NULL || !check_nonnegative(cc, n, "cost"))
        goto done;
    rc = int64_array(args[1], n, "r");
    if (rc == NULL)
        goto done;
    if (budget < 0) {
        /* no budget state exists, so nothing is reachable */
        result = pack(0, 0, NULL, 0);
        goto done;
    }
    size_t w = (size_t)budget + 1;
    g = alloc_table(n + 1, (unsigned long long)budget + 1);
    if (g == NULL)
        goto done;
    idx = PyMem_New(Py_ssize_t, n);
    if (idx == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    memset(g + (size_t)n * w, 0, w * sizeof(long long));
    for (Py_ssize_t i = n - 1; i >= 0; i--) {
        long long *cur = g + (size_t)i * w;
        const long long *nxt = cur + w;
        long long ri = rc[i], ci = cc[i];
        /* budgets b < c_i cannot take item i */
        long long copy = ci <= budget ? ci : budget + 1;
        memcpy(cur, nxt, (size_t)copy * sizeof(long long));
        for (long long b = ci; b <= budget; b++) {
            long long take = ri + nxt[b - ci];
            cur[b] = take > nxt[b] ? take : nxt[b];
        }
    }

    long long minreach = -1;
    for (long long b = 0; b <= budget; b++) {
        if (g[b] >= target) {
            minreach = b;
            break;
        }
    }
    Py_ssize_t k = 0;
    if (minreach >= 0) {
        long long b = minreach, t = target;
        for (Py_ssize_t i = 0; i < n && t > 0; i++) {
            const long long *nxt = g + (size_t)(i + 1) * w;
            long long ci = cc[i];
            if (ci <= b && nxt[b - ci] >= t - rc[i]) {
                idx[k++] = i;
                b -= ci;
                t -= rc[i];
            }
        }
    }
    result = pack(minreach >= 0, minreach, idx, k);
done:
    PyMem_Free(cc);
    PyMem_Free(rc);
    PyMem_Free(g);
    PyMem_Free(idx);
    return result;
}

PyDoc_STRVAR(kc_best_subset_doc,
"kc_best_subset(r, a, X, q)\n--\n\n"
"Exhaustive knapsack-cover scan; see _kernels_py.kc_best_subset.");

static PyObject *
kc_best_subset(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (!check_nargs("kc_best_subset", nargs, 4))
        return NULL;
    long long X = PyLong_AsLongLong(args[2]);
    if (X == -1 && PyErr_Occurred())
        return NULL;
    long long q = PyLong_AsLongLong(args[3]);
    if (q == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t n = PySequence_Size(args[0]);
    if (n < 0)
        return NULL;

    PyObject *result = NULL;
    long long *ac = NULL, *sum_r = NULL;
    long long *rc = int64_array(args[0], n, "r");
    if (rc == NULL)
        goto done;
    ac = int64_array(args[1], n, "a");
    if (ac == NULL)
        goto done;
    /* one cell per subset mask */
    if (n >= 64) {
        PyErr_NoMemory();
        goto done;
    }
    unsigned long long total = 1ULL << n;
    sum_r = alloc_table(1, total);
    if (sum_r == NULL)
        goto done;

    sum_r[0] = 0;
    for (unsigned long long m = 1; m < total; m++)
        sum_r[m] = sum_r[m & (m - 1)] + rc[__builtin_ctzll(m)];
    int have = 0;
    long long best = 0;
    unsigned long long best_mask = 0, full = total - 1;
    for (unsigned long long m = 0; m < total; m++) {
        long long bq = q - sum_r[m];
        if (bq <= 0)
            continue;
        long long acc = bq * X;
        for (unsigned long long mm = full ^ m; mm; mm &= mm - 1) {
            int i = __builtin_ctzll(mm);
            acc -= (rc[i] < bq ? rc[i] : bq) * ac[i];
        }
        /* ties keep the smaller mask */
        if (!have || acc > best) {
            have = 1;
            best = acc;
            best_mask = m;
        }
    }
    if (have)
        result = Py_BuildValue("(LK)", best, best_mask);
    else
        result = Py_BuildValue("(OK)", Py_None, best_mask);
done:
    PyMem_Free(rc);
    PyMem_Free(ac);
    PyMem_Free(sum_r);
    return result;
}

static PyMethodDef speedups_methods[] = {
    {"min_cover_solve", (PyCFunction)(void (*)(void))min_cover_solve,
     METH_FASTCALL, min_cover_solve_doc},
    {"max_profit_solve", (PyCFunction)(void (*)(void))max_profit_solve,
     METH_FASTCALL, max_profit_solve_doc},
    {"kc_best_subset", (PyCFunction)(void (*)(void))kc_best_subset,
     METH_FASTCALL, kc_best_subset_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "pitchcut._speedups",
    .m_doc = "Compiled int64 versions of the DP kernels in _kernels_py.",
    .m_size = -1,
    .m_methods = speedups_methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&speedups_module);
}
