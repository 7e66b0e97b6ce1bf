/* Compiled int64 versions of the DP kernels.

   Mirror images of _kernels_py: the same recurrences and the same
   tie-breaks, so the reconstructed index sets are equal to the pure
   Python ones.  min_cover_solve, max_profit_solve and kc_best_subset are
   single DPs; min_cover_levels and fptas_levels sweep the pitch-2 level
   grid in one call, sharing tables and set-up across the levels.  The
   dispatch layer in kernels.py calls in here only when every
   intermediate value provably fits in a signed 64-bit integer (and the
   FPTAS's guess and rounding in a signed 128-bit one).  What this
   module checks itself is memory safety: sequence items must be ints,
   an item that would index outside a table is refused, and a table
   whose byte size does not fit in size_t raises MemoryError instead of
   wrapping round to a small block.

   kc_best_subset uses __builtin_ctzll and fptas_levels __int128, so the
   module needs GCC or Clang; setup.py marks the extension optional, and
   without it kernels.py runs the Python fallbacks. */

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

/* Refuse a decreasing step: min_cover_levels finds each level's
   doubled items as a suffix. */
static int
check_ascending(const long long *v, Py_ssize_t n, const char *name)
{
    for (Py_ssize_t i = 1; i < n; i++) {
        if (v[i] < v[i - 1]) {
            PyErr_Format(PyExc_ValueError, "%s must be ascending", name);
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

/* One row of the min-cover DP: cur[s], s = 0..need, is the cheapest
   cover of s by item i (profit ri, cost oi) and the items after it,
   whose row is nxt.  Infeasible cells of nxt hold INF, and stay exactly
   INF in cur, since oi >= 0. */
static void
cover_row(long long *cur, const long long *nxt, long long ri, long long oi,
          long long need)
{
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

/* Reconstructs an optimal cover of need from rows[0..n], writing its
   indices to idx and returning their count.  Item i costs obj[i] for
   i < k and 2*obj[i] from k on. */
static Py_ssize_t
cover_pick(long long *const *rows, const long long *rc, const long long *obj,
           Py_ssize_t k, Py_ssize_t n, long long need, Py_ssize_t *idx)
{
    Py_ssize_t count = 0;
    long long s = need;
    for (Py_ssize_t i = 0; i < n && s != 0; i++) {
        long long oi = i < k ? obj[i] : 2 * obj[i];
        long long s2 = s > rc[i] ? s - rc[i] : 0;
        /* prefer taking i: among optima this yields the lex-smallest set */
        if (oi + rows[i + 1][s2] == rows[i][s]) {
            idx[count++] = i;
            s = s2;
        }
    }
    return count;
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
    long long *oc = NULL, *f = NULL, **rows = NULL;
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
    rows = PyMem_New(long long *, n + 1);
    idx = PyMem_New(Py_ssize_t, n);
    if (rows == NULL || idx == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    long long inf = 1;
    for (Py_ssize_t i = 0; i < n; i++)
        inf += oc[i];
    for (Py_ssize_t i = 0; i <= n; i++)
        rows[i] = f + (size_t)i * w;
    rows[n][0] = 0;
    for (long long s = 1; s <= need; s++)
        rows[n][s] = inf;
    for (Py_ssize_t i = n - 1; i >= 0; i--)
        cover_row(rows[i], rows[i + 1], rc[i], oc[i], need);

    long long value = rows[0][need];
    Py_ssize_t k = value < inf ? cover_pick(rows, rc, oc, n, n, need, idx) : 0;
    result = pack(value < inf, value, idx, k);
done:
    PyMem_Free(rc);
    PyMem_Free(oc);
    PyMem_Free(f);
    PyMem_Free(rows);
    PyMem_Free(idx);
    return result;
}

/* The budget-indexed max-profit DP in g, n+1 rows of budget+1 cells:
   g[i][b] is the largest sum of r over items i.. with cost sum <= b.
   Returns the least b with g[0][b] >= target, or -1 if there is none;
   then writes a witness set to idx and its size to *k. */
static long long
profit_dp(const long long *cc, const long long *rc, Py_ssize_t n,
          long long budget, long long target, long long *g,
          Py_ssize_t *idx, Py_ssize_t *k)
{
    size_t w = (size_t)budget + 1;
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
    *k = 0;
    if (minreach >= 0) {
        long long b = minreach, t = target;
        for (Py_ssize_t i = 0; i < n && t > 0; i++) {
            const long long *nxt = g + (size_t)(i + 1) * w;
            long long ci = cc[i];
            if (ci <= b && nxt[b - ci] >= t - rc[i]) {
                idx[(*k)++] = i;
                b -= ci;
                t -= rc[i];
            }
        }
    }
    return minreach;
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
    g = alloc_table(n + 1, (unsigned long long)budget + 1);
    if (g == NULL)
        goto done;
    idx = PyMem_New(Py_ssize_t, n);
    if (idx == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t k;
    long long minreach = profit_dp(cc, rc, n, budget, target, g, idx, &k);
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

/* need[l] = base + nums[l] for every level, or -1 with OverflowError set
   when a sum leaves 64 bits. */
static int
level_needs(long long base, const long long *nc, Py_ssize_t levels,
            long long *need)
{
    for (Py_ssize_t l = 0; l < levels; l++) {
        if (__builtin_add_overflow(base, nc[l], &need[l])) {
            PyErr_SetString(PyExc_OverflowError,
                            "base + num does not fit in 64 bits");
            return -1;
        }
    }
    return 0;
}

PyDoc_STRVAR(min_cover_levels_doc,
"min_cover_levels(r, a, base, nums)\n--\n\n"
"Min-cost cover DP at every level; see _kernels_py.min_cover_levels.");

static PyObject *
min_cover_levels(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (!check_nargs("min_cover_levels", nargs, 4))
        return NULL;
    long long base = PyLong_AsLongLong(args[2]);
    if (base == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t n = PySequence_Size(args[0]);
    if (n < 0)
        return NULL;
    Py_ssize_t levels = PySequence_Size(args[3]);
    if (levels < 0)
        return NULL;

    PyObject *result = NULL;
    long long *ac = NULL, *nc = NULL, *need = NULL, *f = NULL, **rows = NULL;
    Py_ssize_t *ks = NULL, *start = NULL, *order = NULL, *idx = NULL;
    long long *rc = int64_array(args[0], n, "r");
    if (rc == NULL || !check_nonnegative(rc, n, "r")
        || !check_ascending(rc, n, "r"))
        goto done;
    ac = int64_array(args[1], n, "a");
    if (ac == NULL || !check_nonnegative(ac, n, "a"))
        goto done;
    nc = int64_array(args[3], levels, "nums");
    if (nc == NULL)
        goto done;
    need = PyMem_New(long long, levels);
    ks = PyMem_New(Py_ssize_t, levels);
    order = PyMem_New(Py_ssize_t, levels);
    start = PyMem_New(Py_ssize_t, n + 2);
    rows = PyMem_New(long long *, n + 1);
    idx = PyMem_New(Py_ssize_t, n);
    if (need == NULL || ks == NULL || order == NULL || start == NULL
        || rows == NULL || idx == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (level_needs(base, nc, levels, need) < 0)
        goto done;

    /* r is ascending, so the items doubled at level l, r_i >= nums[l],
       are the suffix from ks[l] = #{i : r_i < nums[l]}; the levels are
       solved in ascending ks, counting-sorted into order */
    memset(start, 0, (size_t)(n + 2) * sizeof(Py_ssize_t));
    long long top = 0;
    Py_ssize_t kmin = n;
    for (Py_ssize_t l = 0; l < levels; l++) {
        Py_ssize_t lo = 0, hi = n;
        while (lo < hi) {
            Py_ssize_t mid = lo + (hi - lo) / 2;
            if (rc[mid] < nc[l])
                lo = mid + 1;
            else
                hi = mid;
        }
        ks[l] = lo;
        start[lo + 1]++;
        if (need[l] > 0) {
            top = need[l] > top ? need[l] : top;
            kmin = lo < kmin ? lo : kmin;
        }
    }
    for (Py_ssize_t k = 0; k <= n; k++)
        start[k + 1] += start[k];
    for (Py_ssize_t l = 0; l < levels; l++)
        order[start[ks[l]]++] = l;

    /* One table at the largest need.  Rows kmin.. start as the rows of
       the all-doubled objective, which every level shares from its ks
       on; a level then overwrites rows 0..ks-1 with its own undoubled
       prefix, which no level after it reads.  INF exceeds every finite
       cell at every level and infeasible cells hold exactly INF, so each
       level's finite cells and reconstruction equal those of its own
       min_cover_solve table. */
    long long inf = 1;
    for (Py_ssize_t i = 0; i < n; i++)
        inf += 2 * ac[i];
    if (top > 0) {
        size_t w = (size_t)top + 1;
        f = alloc_table(n + 1, (unsigned long long)top + 1);
        if (f == NULL)
            goto done;
        for (Py_ssize_t i = 0; i <= n; i++)
            rows[i] = f + (size_t)i * w;
        rows[n][0] = 0;
        for (long long s = 1; s <= top; s++)
            rows[n][s] = inf;
        for (Py_ssize_t i = n - 1; i >= kmin; i--)
            cover_row(rows[i], rows[i + 1], rc[i], 2 * ac[i], top);
    }

    result = PyList_New(levels);
    if (result == NULL)
        goto done;
    for (Py_ssize_t j = 0; j < levels; j++) {
        Py_ssize_t l = order[j], k = ks[l];
        PyObject *item;
        if (need[l] <= 0) {
            item = pack(1, 0, NULL, 0);
        } else {
            for (Py_ssize_t i = k - 1; i >= 0; i--)
                cover_row(rows[i], rows[i + 1], rc[i], ac[i], need[l]);
            long long value = rows[0][need[l]];
            Py_ssize_t count = value < inf
                ? cover_pick(rows, rc, ac, k, n, need[l], idx) : 0;
            item = pack(value < inf, value, idx, count);
        }
        if (item == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, l, item);
    }
done:
    PyMem_Free(rc);
    PyMem_Free(ac);
    PyMem_Free(nc);
    PyMem_Free(need);
    PyMem_Free(f);
    PyMem_Free(rows);
    PyMem_Free(ks);
    PyMem_Free(start);
    PyMem_Free(order);
    PyMem_Free(idx);
    return result;
}

typedef __int128 i128;

/* Whether position i of the paying items comes before position j in the
   density order: c_i/r_i ascending by cross-multiplication, ties to the
   smaller position.  Positions follow the item indices, so this is the
   order of the key (c_i * (R // r_i), i) with R = lcm(r). */
static int
denser(const long long *c, const long long *r, Py_ssize_t i, Py_ssize_t j)
{
    i128 lhs = (i128)c[i] * r[j], rhs = (i128)c[j] * r[i];
    return lhs < rhs || (lhs == rhs && i < j);
}

/* Bottom-up merge sort of order[0..m) by denser, through tmp. */
static void
density_sort(Py_ssize_t *order, Py_ssize_t *tmp, Py_ssize_t m,
             const long long *c, const long long *r)
{
    for (Py_ssize_t width = 1; width < m; width *= 2) {
        for (Py_ssize_t lo = 0; lo < m; lo += 2 * width) {
            Py_ssize_t mid = m - lo > width ? lo + width : m;
            Py_ssize_t hi = m - mid > width ? mid + width : m;
            Py_ssize_t x = lo, y = mid, t = lo;
            while (x < mid && y < hi)
                tmp[t++] = denser(c, r, order[y], order[x])
                    ? order[y++] : order[x++];
            while (x < mid)
                tmp[t++] = order[x++];
            while (y < hi)
                tmp[t++] = order[y++];
        }
        memcpy(order, tmp, (size_t)m * sizeof(Py_ssize_t));
    }
}

/* The bounds that kernels.py's dispatch guard proves, checked again so
   that a direct call cannot overflow: sums of r and of the doubled
   costs, en, ed and the cost-state bound B below 2**62, and every
   guess and rounding product below 2**126.  OverflowError otherwise. */
static int
fptas_fits(const long long *rc, const long long *ac, Py_ssize_t n,
           long long en, long long ed)
{
    const i128 lim = (i128)1 << 62;
    i128 sum_r = 0, sum_a = 0, top = 0, bound;
    for (Py_ssize_t i = 0; i < n; i++) {
        sum_r += rc[i];
        sum_a += ac[i];
        top = rc[i] > top ? rc[i] : top;
    }
    /* 2*sum_a*top < 2**126 and n*ed + en < 2**126 */
    int fits = sum_r + 1 < lim && 2 * sum_a + 1 < lim && en < lim
        && ed < lim && (2 * (i128)ed + 1) * n + 1 < lim
        && !__builtin_mul_overflow(2 * sum_a * top, (i128)n * ed + en,
                                   &bound)
        && bound < ((i128)1 << 125);
    if (!fits)
        PyErr_SetString(PyExc_OverflowError,
                        "fptas_levels inputs exceed its integer ranges");
    return fits;
}

PyDoc_STRVAR(fptas_levels_doc,
"fptas_levels(r, a, base, nums, en, ed)\n--\n\n"
"FPTAS cover at every level; see _kernels_py.fptas_levels.");

static PyObject *
fptas_levels(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (!check_nargs("fptas_levels", nargs, 6))
        return NULL;
    long long base = PyLong_AsLongLong(args[2]);
    if (base == -1 && PyErr_Occurred())
        return NULL;
    long long en = PyLong_AsLongLong(args[4]);
    if (en == -1 && PyErr_Occurred())
        return NULL;
    long long ed = PyLong_AsLongLong(args[5]);
    if (ed == -1 && PyErr_Occurred())
        return NULL;
    if (en <= 0 || ed <= 0) {
        PyErr_SetString(PyExc_ValueError, "en and ed must be positive");
        return NULL;
    }
    Py_ssize_t n = PySequence_Size(args[0]);
    if (n < 0)
        return NULL;
    Py_ssize_t levels = PySequence_Size(args[3]);
    if (levels < 0)
        return NULL;

    PyObject *result = NULL;
    long long *ac = NULL, *nc = NULL, *need = NULL, *g = NULL;
    long long *cost = NULL, *rounded = NULL, *sub_r = NULL;
    Py_ssize_t *zero = NULL, *pay = NULL, *order = NULL, *tmp = NULL;
    Py_ssize_t *taken = NULL, *idx = NULL, *chosen = NULL;
    long long *rc = int64_array(args[0], n, "r");
    if (rc == NULL || !check_nonnegative(rc, n, "r"))
        goto done;
    ac = int64_array(args[1], n, "a");
    if (ac == NULL || !check_nonnegative(ac, n, "a")
        || !fptas_fits(rc, ac, n, en, ed))
        goto done;
    nc = int64_array(args[3], levels, "nums");
    if (nc == NULL)
        goto done;
    need = PyMem_New(long long, levels);
    cost = PyMem_New(long long, n);
    rounded = PyMem_New(long long, n);
    sub_r = PyMem_New(long long, n);
    zero = PyMem_New(Py_ssize_t, n);
    pay = PyMem_New(Py_ssize_t, n);
    order = PyMem_New(Py_ssize_t, n);
    tmp = PyMem_New(Py_ssize_t, n);
    taken = PyMem_New(Py_ssize_t, n);
    idx = PyMem_New(Py_ssize_t, n);
    chosen = PyMem_New(Py_ssize_t, n);
    if (need == NULL || cost == NULL || rounded == NULL || sub_r == NULL
        || zero == NULL || pay == NULL || order == NULL || tmp == NULL
        || taken == NULL || idx == NULL || chosen == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (level_needs(base, nc, levels, need) < 0)
        goto done;

    /* shared by the levels: the zero-cost items, the paying items (cost
       and profit positive) and the cost-state bound B = ceil(2m/eps) + m;
       a level doubles costs, so only the paying costs change with it */
    Py_ssize_t nz = 0, m = 0;
    long long pay_r = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (ac[i] == 0) {
            zero[nz++] = i;
        } else if (rc[i] > 0) {
            sub_r[m] = rc[i];
            pay[m++] = i;
            pay_r += rc[i];
        }
    }
    long long B = (long long)(((i128)2 * m * ed + en - 1) / en) + m;

    result = PyList_New(levels);
    if (result == NULL)
        goto done;
    for (Py_ssize_t l = 0; l < levels; l++) {
        PyObject *item = NULL;
        long long cover = 0;
        Py_ssize_t t = 0;
        /* zero-cost items are taken up front, in index order */
        for (Py_ssize_t j = 0; j < nz && cover < need[l]; j++) {
            taken[t++] = zero[j];
            cover += rc[zero[j]];
        }
        if (need[l] <= 0) {
            item = pack(1, 0, NULL, 0);
        } else if (cover >= need[l]) {
            item = pack(1, 0, taken, t);
        } else if (pay_r < need[l] - cover) {
            item = pack(0, 0, NULL, 0);
        } else {
            long long residual = need[l] - cover, total = 0;
            for (Py_ssize_t j = 0; j < m; j++) {
                long long aj = ac[pay[j]];
                cost[j] = sub_r[j] < nc[l] ? aj : 2 * aj;
                total += cost[j];
                order[j] = j;
            }
            /* the fractional greedy bound gn/gd, at most the optimum */
            density_sort(order, tmp, m, cost, sub_r);
            i128 gn = 0, gd = 1;
            long long acc = 0, spent = 0;
            for (Py_ssize_t j = 0; j < m; j++) {
                Py_ssize_t o = order[j];
                if (acc + sub_r[o] >= residual) {
                    gn = (i128)spent * sub_r[o]
                        + (i128)cost[o] * (residual - acc);
                    gd = sub_r[o];
                    break;
                }
                acc += sub_r[o];
                spent += cost[o];
            }
            if (g == NULL
                && (g = alloc_table(m + 1, (unsigned long long)B + 1))
                   == NULL) {
                Py_CLEAR(result);
                goto done;
            }
            for (;;) {
                /* ceil(c / delta) with delta = eps*gn / (2m*gd); a cost
                   above B is never taken, so it is clipped to B + 1 */
                i128 num = (i128)2 * m * ed * gd, den = (i128)en * gn;
                for (Py_ssize_t j = 0; j < m; j++) {
                    i128 x = ((i128)cost[j] * num + den - 1) / den;
                    rounded[j] = x > B ? B + 1 : (long long)x;
                }
                Py_ssize_t k;
                long long reach = profit_dp(rounded, sub_r, m, B, residual,
                                            g, idx, &k);
                if (reach >= 0) {
                    /* chosen = sorted(taken + picked); both ascend */
                    long long value = 0;
                    Py_ssize_t x = 0, y = 0, c = 0;
                    while (x < t || y < k) {
                        if (y == k || (x < t && taken[x] < pay[idx[y]])) {
                            chosen[c++] = taken[x++];
                        } else {
                            value += cost[idx[y]];
                            chosen[c++] = pay[idx[y++]];
                        }
                    }
                    item = pack(1, value, chosen, c);
                    break;
                }
                if (gn >= (i128)total * gd) {
                    /* at guess = total every rounded cost fits inside B */
                    PyErr_SetString(PyExc_AssertionError,
                                    "guess loop exhausted without a cover");
                    break;
                }
                if (2 * gn >= (i128)total * gd) {
                    gn = total;
                    gd = 1;
                } else {
                    gn *= 2;
                }
            }
        }
        if (item == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, l, item);
    }
done:
    PyMem_Free(rc);
    PyMem_Free(ac);
    PyMem_Free(nc);
    PyMem_Free(need);
    PyMem_Free(g);
    PyMem_Free(cost);
    PyMem_Free(rounded);
    PyMem_Free(sub_r);
    PyMem_Free(zero);
    PyMem_Free(pay);
    PyMem_Free(order);
    PyMem_Free(tmp);
    PyMem_Free(taken);
    PyMem_Free(idx);
    PyMem_Free(chosen);
    return result;
}

static PyMethodDef speedups_methods[] = {
    {"min_cover_solve", (PyCFunction)(void (*)(void))min_cover_solve,
     METH_FASTCALL, min_cover_solve_doc},
    {"max_profit_solve", (PyCFunction)(void (*)(void))max_profit_solve,
     METH_FASTCALL, max_profit_solve_doc},
    {"kc_best_subset", (PyCFunction)(void (*)(void))kc_best_subset,
     METH_FASTCALL, kc_best_subset_doc},
    {"min_cover_levels", (PyCFunction)(void (*)(void))min_cover_levels,
     METH_FASTCALL, min_cover_levels_doc},
    {"fptas_levels", (PyCFunction)(void (*)(void))fptas_levels,
     METH_FASTCALL, fptas_levels_doc},
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
