/* Depth-first search kernel for one fixed target length T.
 *
 * vdwkit._engine compiles this file on first use with the system C
 * compiler and loads it with ctypes.  The search rules (branching order,
 * colour symmetry, propagation, root assumptions) are documented in the
 * _engine module docstring; the plain Python reference kernel there
 * implements the same rules, and the two must agree node for node.
 *
 * Two propagation paths give the same fixpoints and therefore the same
 * search tree:
 *   counters  any k (named for the colour counts it once kept): one
 *             negative clause per progression and colour, watching two
 *             members not coloured in that colour, as the reference does
 *             and in its order; per position the blocked colours and
 *             their count; one trail of colourings and blocks, undone per
 *             decision, while the watches are never restored;
 *   masks     k = 3 and T <= 128: 128-bit masks, saved whole at every
 *             decision level instead of trailed.  A frame holds 7r+1
 *             masks: per colour c the set M of positions coloured c, the
 *             set B of positions where c is blocked, and four masks
 *             derived from M (reflection: bit 127-q for each q in M;
 *             dilation: bit 2q, over two words; even halving: bit q/2
 *             for even q; odd halving: bit (q-1)/2 for odd q); then the
 *             set of free positions.
 *
 * Assigning p := c on the mask path blocks c at every position x that
 * forms a 3-term progression with p and some q in M[c].  p plays one of
 * three roles in {p, q, x}: the first or last term, so x = 2p-q; the
 * middle, so x = 2q-p; or x is the middle, so x = (p+q)/2 with p+q even.
 * Each role is one shift of one derived mask:
 *   2p-q      reflection shifted left by 2p-127 (right by 127-2p), which
 *             moves bit 127-q to bit 2p-q and drops the negative ones;
 *   2q-p      the two dilation words shifted right by p as one 256-bit
 *             value, keeping the low word, where every x < T lies;
 *   (p+q)/2   for even p the even halving shifted left by p/2, for odd p
 *             the odd halving shifted left by (p+1)/2: q/2 + p/2 and
 *             (q-1)/2 + (p+1)/2 are both (p+q)/2, and q of the other
 *             parity gives no integer middle.
 * ANDed with the T positions, their OR is exactly the union over q in
 * M[c] of {2p-q, 2q-p, (p+q)/2} clipped to [0, T): the positions where
 * c now completes a progression.  That costs a fixed number of mask
 * operations per assignment, whatever the size of M[c].  B[c] is the
 * union of those sets over all assignments of c, so a free position
 * completes a monochromatic progression in c exactly when its bit in
 * B[c] is set, and that one test rejects an assignment.  The counts of
 * blocked colours that end a propagation also choose the next position.
 */
#include <stdlib.h>
#include <string.h>

#define ST_RUNNING 0
#define ST_FOUND 1
#define ST_EXHAUSTED 2
#define ST_PAUSED 3

#define ORDER_LOWEST 0
#define ORDER_MOST_BLOCKED 1

typedef unsigned __int128 mask_t;

typedef struct {
    int r, k, T, order, masks;
    int status, depth, maxused, nassigned, maxdepth;
    long long nodes;
    int *col;
    /* decision frames, one per level */
    int *dec_pos, *dec_color, *dec_maxused, *dec_mark;
    int *midout;
    /* counter path: per progression a, ap[a * (r + 2)] holds its first
     * member, its step and, per colour c, the sum of the two members its
     * clause in c watches; watch[c] + wptr[p] holds the wlen[c * T + p]
     * clauses in colour c that watch position p */
    int *ap, *wptr, **watch, *wlen;
    unsigned char *blocked;
    int *nblocked;
    int *trail, trail_top, *queue, qtail;
    /* mask path: cur holds one frame (see F_*), all the T-position mask */
    mask_t *cur, *saved, *ge, all;
} run_t;

static int ctz128(mask_t m)
{
    unsigned long long lo = (unsigned long long)m;
    if (lo)
        return __builtin_ctzll(lo);
    return 64 + __builtin_ctzll((unsigned long long)(m >> 64));
}

static int top128(mask_t m)
{
    unsigned long long hi = (unsigned long long)(m >> 64);
    if (hi)
        return 127 - __builtin_clzll(hi);
    return 63 - __builtin_clzll((unsigned long long)m);
}

/* ---- counter path ---------------------------------------------------- */

static void c_undo(run_t *s, int mark)
{
    while (s->trail_top > mark) {
        int e = s->trail[--s->trail_top];
        if (e < 0) {
            s->col[~e] = -1;
            s->nassigned--;
        } else {
            s->blocked[e] = 0;
            s->nblocked[e / s->r]--;
        }
    }
}

static void c_assign(run_t *s, int p, int c)
{
    s->col[p] = c;
    s->trail[s->trail_top++] = ~p;
    s->queue[s->qtail++] = p;
    if (++s->nassigned > s->maxdepth)
        s->maxdepth = s->nassigned;
    if (c > s->maxused)
        s->maxused = c;
}

/* Every member of a clause in colour c but o is coloured c: block c at o,
 * forcing o when one colour is left; 0 on a conflict. */
static int c_unit(run_t *s, int o, int c)
{
    int r = s->r;
    if (s->col[o] >= 0)
        return s->col[o] != c;
    unsigned char *b = s->blocked + o * r;
    if (b[c])
        return 1;
    b[c] = 1;
    s->trail[s->trail_top++] = o * r + c;
    int nb = ++s->nblocked[o];
    if (nb == r - 1) {
        int f = 0;
        while (b[f])
            f++;
        c_assign(s, o, f);
    }
    return nb < r;
}

/* Assign p := c and propagate to a fixpoint; 0 on a conflict.  The queue
 * holds the positions coloured in this propagation, in order.  A watch
 * list is compacted in place, so its order is the reference's. */
static int c_propagate(run_t *s, int p, int c)
{
    int r = s->r, k = s->k, T = s->T, head = 0;
    size_t w = r + 2;
    s->qtail = 0;
    c_assign(s, p, c);
    while (head < s->qtail) {
        int x = s->queue[head++], cx = s->col[x];
        int *watch = s->watch[cx], *wlen = s->wlen + cx * T;
        int *list = watch + s->wptr[x], n = wlen[x], kept = 0;
        for (int i = 0; i < n; i++) {
            int a = list[i];
            int *row = s->ap + a * w;
            int step = row[1], other = row[2 + cx] - x, m = row[0], j = 0;
            for (; j < k; j++, m += step)
                if (m != other && s->col[m] != cx)
                    break;
            if (j < k) {
                row[2 + cx] = other + m;
                watch[s->wptr[m] + wlen[m]++] = a;
                continue;
            }
            list[kept++] = a;
            if (!c_unit(s, other, cx)) {
                memmove(list + kept, list + i + 1, (n - i - 1) * sizeof(int));
                wlen[x] = kept + n - i - 1;
                return 0;
            }
        }
        wlen[x] = kept;
    }
    return 1;
}

static int c_select(run_t *s)
{
    if (s->order == ORDER_LOWEST) {
        for (int p = 0; p < s->T; p++)
            if (s->col[p] < 0)
                return p;
        return -1;
    }
    int best = -1, bestnb = -1;
    for (int i = 0; i < s->T; i++) {
        int p = s->midout[i];
        if (s->col[p] >= 0 || s->nblocked[p] <= bestnb)
            continue;
        best = p;
        bestnb = s->nblocked[p];
        /* a free position with r-1 blocked colours would have been forced */
        if (bestnb >= s->r - 2)
            break;
    }
    return best;
}

/* ---- mask path ------------------------------------------------------- */

/* The frame: block b, colour c at s->cur[b * r + c], free at F_BLOCKS * r */
enum { F_M, F_B, F_REFL, F_DIL_LO, F_DIL_HI, F_HALF_EVEN, F_HALF_ODD, F_BLOCKS };

/* ge[j] := positions with at least j of the r colours blocked in B, for
 * j = 1..r; ge[0] is every position */
static inline __attribute__((always_inline)) void
count_blocked_r(const mask_t *B, const int r, mask_t *ge)
{
    ge[0] = ~(mask_t)0;
    for (int j = 1; j <= r; j++)
        ge[j] = 0;
    for (int c = 0; c < r; c++)
        for (int j = c + 1; j >= 1; j--)
            ge[j] |= ge[j - 1] & B[c];
}

/* count_blocked_r with a constant r where it pays, so its loops unroll */
static void m_count_blocked(const mask_t *B, int r, mask_t *ge)
{
    switch (r) {
    case 2:
        count_blocked_r(B, 2, ge);
        break;
    case 3:
        count_blocked_r(B, 3, ge);
        break;
    case 4:
        count_blocked_r(B, 4, ge);
        break;
    default:
        count_blocked_r(B, r, ge);
    }
}

static int m_assign(run_t *s, int p, int c)
{
    int r = s->r;
    mask_t *f = s->cur;
    mask_t bit = (mask_t)1 << p;
    int n = s->nassigned + 1;
    if (n > s->maxdepth)
        s->maxdepth = n;
    if (c > s->maxused)
        s->maxused = c;
    if (f[F_B * r + c] & bit)
        return 0;
    mask_t *refl = f + F_REFL * r + c, *dlo = f + F_DIL_LO * r + c,
           *dhi = f + F_DIL_HI * r + c, *half = f + F_HALF_EVEN * r + c,
           *half_odd = f + F_HALF_ODD * r + c;
    /* 2p-q from bit 127-q, 2q-p from bit 2q, (p+q)/2 from bit q/2 or
     * (q-1)/2 of the halving with p's parity */
    mask_t blocks = (2 * p > 127 ? *refl << (2 * p - 127) : *refl >> (127 - 2 * p))
                  | *dlo >> p | (*dhi << 1) << (127 - p)
                  | (p & 1 ? *half_odd << ((p + 1) / 2) : *half << (p / 2));
    f[F_B * r + c] |= blocks & s->all;
    f[F_M * r + c] |= bit;
    *refl |= (mask_t)1 << (127 - p);
    if (p < 64)
        *dlo |= (mask_t)1 << (2 * p);
    else
        *dhi |= (mask_t)1 << (2 * p - 128);
    if (p & 1)
        *half_odd |= (mask_t)1 << ((p - 1) / 2);
    else
        *half |= (mask_t)1 << (p / 2);
    f[F_BLOCKS * r] &= ~bit;
    s->nassigned = n;
    return 1;
}

/* Assign p := c and propagate to a fixpoint; 0 on a conflict.  Each
 * round assigns every position the last count found forced, then counts
 * again.  At a fixpoint s->ge holds the counts m_select reads. */
static int m_propagate(run_t *s, int p, int c)
{
    int r = s->r;
    const mask_t *B = s->cur + F_B * r;
    mask_t *ge = s->ge, forced = 0;
    for (;;) {
        if (!m_assign(s, p, c))
            return 0;
        if (!forced) {
            mask_t freem = s->cur[F_BLOCKS * r];
            m_count_blocked(B, r, ge);
            if (ge[r] & freem)
                return 0;
            forced = ge[r - 1] & freem;
            if (!forced)
                return 1;
        }
        p = ctz128(forced);
        forced &= forced - 1;
        for (c = 0; c < r && ((B[c] >> p) & 1); c++)
            ;
        if (c == r)
            return 0;
    }
}

/* first position of cand in middle-out order: nearest to the centre,
 * the lower one on a tie */
static int m_midout_first(mask_t cand, int T)
{
    int h = (T - 1) / 2;
    mask_t low = cand & (((mask_t)1 << (h + 1)) - 1);
    mask_t high = cand >> (h + 1);
    if (!high)
        return top128(low);
    int xh = h + 1 + ctz128(high);
    if (!low)
        return xh;
    int xl = top128(low);
    return 2 * xh - (T - 1) < (T - 1) - 2 * xl ? xh : xl;
}

/* reads the ge masks the last m_propagate left at its fixpoint */
static int m_select(run_t *s)
{
    int r = s->r;
    mask_t freem = s->cur[F_BLOCKS * r];
    if (!freem)
        return -1;
    if (s->order == ORDER_LOWEST)
        return ctz128(freem);
    mask_t cand = freem;
    for (int j = r - 2; j >= 1; j--)
        if (s->ge[j] & freem) {
            cand = s->ge[j] & freem;
            break;
        }
    return m_midout_first(cand, s->T);
}

/* ---- shared search loop ---------------------------------------------- */

static int is_blocked(const run_t *s, int p, int c)
{
    if (s->masks)
        return (int)((s->cur[s->r + c] >> p) & 1);
    return s->blocked[p * s->r + c];
}

static int colour_at(const run_t *s, int p)
{
    if (!s->masks)
        return s->col[p];
    for (int c = 0; c < s->r; c++)
        if ((s->cur[c] >> p) & 1)
            return c;
    return -1;
}

static int propagate(run_t *s, int p, int c)
{
    return s->masks ? m_propagate(s, p, c) : c_propagate(s, p, c);
}

static int select_position(run_t *s)
{
    return s->masks ? m_select(s) : c_select(s);
}

/* the mask path keeps its assigned count in dec_mark, the counter path
 * its trail mark */
static void save_frame(run_t *s, int d)
{
    size_t w = F_BLOCKS * (size_t)s->r + 1;
    if (s->masks) {
        memcpy(s->saved + d * w, s->cur, w * sizeof(mask_t));
        s->dec_mark[d] = s->nassigned;
    } else {
        s->dec_mark[d] = s->trail_top;
    }
}

static void restore_frame(run_t *s, int d)
{
    size_t w = F_BLOCKS * (size_t)s->r + 1;
    if (s->masks) {
        memcpy(s->cur, s->saved + d * w, w * sizeof(mask_t));
        s->nassigned = s->dec_mark[d];
    } else {
        c_undo(s, s->dec_mark[d]);
    }
}

int vdw_step(run_t *s, long long quota)
{
    if (s->status == ST_FOUND || s->status == ST_EXHAUSTED)
        return s->status;
    int r = s->r, status;
    long long nodes = 0;
    for (;;) {
        if (nodes >= quota) {
            status = ST_PAUSED;
            break;
        }
        int d = s->depth;
        restore_frame(s, d);
        int maxused = s->dec_maxused[d], p = s->dec_pos[d];
        int cmax = maxused + 1 < r - 1 ? maxused + 1 : r - 1;
        int c = s->dec_color[d] + 1;
        while (c <= cmax && is_blocked(s, p, c))
            c++;
        if (c > cmax) {
            if (--s->depth < 0) {
                status = ST_EXHAUSTED;
                break;
            }
            continue;
        }
        s->dec_color[d] = c;
        nodes++;
        s->maxused = maxused;
        if (!propagate(s, p, c))
            continue;
        int q = select_position(s);
        if (q < 0) {
            status = ST_FOUND;
            break;
        }
        d++;
        s->depth = d;
        s->dec_pos[d] = q;
        s->dec_color[d] = -1;
        s->dec_maxused[d] = s->maxused;
        save_frame(s, d);
    }
    s->nodes += nodes;
    s->status = status;
    return status;
}

long long vdw_nodes(const run_t *s) { return s->nodes; }

int vdw_max_depth(const run_t *s) { return s->maxdepth; }

void vdw_coloring(const run_t *s, int *out)
{
    for (int p = 0; p < s->T; p++)
        out[p] = colour_at(s, p);
}

void vdw_free(run_t *s)
{
    if (!s)
        return;
    if (s->watch)
        for (int c = 0; c < s->r; c++)
            free(s->watch[c]);
    void *blocks[] = {
        s->col, s->dec_pos, s->dec_color, s->dec_maxused, s->dec_mark,
        s->midout, s->ap, s->wptr, s->watch, s->wlen, s->blocked,
        s->nblocked, s->trail, s->queue, s->cur, s->saved, s->ge,
    };
    for (size_t i = 0; i < sizeof blocks / sizeof blocks[0]; i++)
        free(blocks[i]);
    free(s);
}

/* The clause of progression a in each colour first watches its first two
 * members.  A position's watch list in one colour holds at most one entry
 * per progression through it, so it gets that many slots.  Each colour's
 * lists are a block of their own: glibc raises its mmap and trim
 * thresholds to the largest block freed, and one block r times as large
 * let each thread's arena keep more freed memory (about 0.9 MB more peak
 * RSS over the budgeted W(2, 6) and W(3, 4) searches). */
static int build_watches(run_t *s)
{
    int T = s->T, k = s->k, r = s->r, n = 0;
    for (int d = 1; (k - 1) * d <= T - 1; d++)
        n += T - (k - 1) * d;
    size_t w = r + 2;
    s->ap = malloc(((size_t)n * w + 1) * sizeof(int));
    s->wptr = calloc(T + 1, sizeof(int));
    s->watch = calloc(r, sizeof(int *));
    s->wlen = calloc((size_t)T * r, sizeof(int));
    s->blocked = calloc((size_t)T * r, 1);
    s->nblocked = calloc(T, sizeof(int));
    /* a position enters the trail at most r times: each colour blocked
     * once while it is free, and r-1 blocks colour it */
    s->trail = malloc((size_t)T * (r + 1) * sizeof(int));
    s->queue = malloc(T * sizeof(int));
    if (!s->ap || !s->wptr || !s->watch || !s->wlen || !s->blocked
        || !s->nblocked || !s->trail || !s->queue)
        return 0;
    for (int c = 0; c < r; c++)
        if (!(s->watch[c] = malloc(((size_t)n * k + 1) * sizeof(int))))
            return 0;
    for (int d = 1; (k - 1) * d <= T - 1; d++)
        for (int start = 0; start + (k - 1) * d < T; start++)
            for (int j = 0; j < k; j++)
                s->wptr[start + j * d + 1]++;
    for (int p = 0; p < T; p++)
        s->wptr[p + 1] += s->wptr[p];
    int a = 0;
    for (int d = 1; (k - 1) * d <= T - 1; d++)
        for (int start = 0; start + (k - 1) * d < T; start++, a++) {
            int *row = s->ap + a * w;
            row[0] = start;
            row[1] = d;
            for (int c = 0; c < r; c++) {
                int *watch = s->watch[c], *wlen = s->wlen + c * T;
                row[2 + c] = 2 * start + d;
                watch[s->wptr[start] + wlen[start]++] = a;
                watch[s->wptr[start + d] + wlen[start + d]++] = a;
            }
        }
    return 1;
}

/* ge starts zeroed: right for a run whose root propagated nothing */
static int build_masks(run_t *s)
{
    int T = s->T, r = s->r;
    size_t w = F_BLOCKS * (size_t)r + 1;
    s->cur = calloc(w, sizeof(mask_t));
    s->saved = calloc((size_t)(T + 1) * w, sizeof(mask_t));
    s->ge = calloc(r + 1, sizeof(mask_t));
    if (!s->cur || !s->saved || !s->ge)
        return 0;
    s->all = T == 128 ? ~(mask_t)0 : ((mask_t)1 << T) - 1;
    s->cur[F_BLOCKS * r] = s->all;
    return 1;
}

/* A run over positions 0..T-1 with the given root assumptions applied
 * and propagated; NULL when memory runs out.  The caller validates the
 * arguments (r >= 2, k >= 3, T >= 1, assumptions in range). */
run_t *vdw_new(int r, int k, int T, int order, int n_assume,
               const int *assume_pos, const int *assume_col)
{
    run_t *s = calloc(1, sizeof(run_t));
    if (!s)
        return NULL;
    s->r = r;
    s->k = k;
    s->T = T;
    s->order = order;
    s->masks = k == 3 && T <= 128;
    s->maxused = -1;
    s->col = malloc(T * sizeof(int));
    s->dec_pos = calloc(T + 1, sizeof(int));
    s->dec_color = calloc(T + 1, sizeof(int));
    s->dec_maxused = calloc(T + 1, sizeof(int));
    s->dec_mark = calloc(T + 1, sizeof(int));
    s->midout = malloc(T * sizeof(int));
    if (!s->col || !s->dec_pos || !s->dec_color || !s->dec_maxused
        || !s->dec_mark || !s->midout
        || !(s->masks ? build_masks(s) : build_watches(s))) {
        vdw_free(s);
        return NULL;
    }
    for (int p = 0; p < T; p++)
        s->col[p] = -1;
    int n = 0, lo = (T - 1) / 2, hi = T / 2;
    if (lo == hi) {
        s->midout[n++] = lo--;
        hi++;
    }
    while (n < T) {
        if (lo >= 0)
            s->midout[n++] = lo--;
        if (hi < T)
            s->midout[n++] = hi++;
    }

    s->status = ST_RUNNING;
    for (int i = 0; i < n_assume; i++) {
        int p = assume_pos[i], c = assume_col[i], have = colour_at(s, p);
        if (have == c)
            continue;
        if (have >= 0 || !propagate(s, p, c)) {
            s->status = ST_EXHAUSTED;
            s->depth = -1;
            return s;
        }
    }
    int q = select_position(s);
    if (q < 0) {
        s->status = ST_FOUND;
        return s;
    }
    s->depth = 0;
    s->dec_pos[0] = q;
    s->dec_color[0] = -1;
    s->dec_maxused[0] = s->maxused;
    save_frame(s, 0);
    return s;
}
