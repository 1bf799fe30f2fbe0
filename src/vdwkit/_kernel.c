/* Depth-first search kernel for one fixed target length T.
 *
 * vdwkit._engine compiles this file on first use with the system C
 * compiler and loads it with ctypes.  The search rules (branching order,
 * colour symmetry, propagation, root assumptions) are documented in the
 * _engine module docstring; the plain Python reference kernel there
 * implements the same rules, and the two must agree node for node.
 * max_depth is the deepest decision frame at which a colour was tried.
 *
 * Two propagation paths give the same fixpoints and therefore the same
 * search tree:
 *   counters  any k (named for the colour counts it once kept): one
 *             negative clause per progression and colour, watching two
 *             members not coloured in that colour, as the reference does;
 *             per position the blocked colours and their count; one trail
 *             of colourings and blocks, undone per decision and walked as
 *             the propagation queue (as in MiniSat), while the watches are
 *             never restored;
 *   masks     k = 3 and T <= 128: 128-bit masks, saved whole at every
 *             decision level instead of trailed.  A frame holds 7r+1
 *             masks: per colour c the set B of positions where c is
 *             blocked, and four masks derived from the set M of positions
 *             coloured c (reflection: bit 127-q for each q in M, which
 *             also gives each position's colour; dilation: bit 2q, over
 *             two words; even halving: bit q/2 for even q; odd halving:
 *             bit (q-1)/2 for odd q); per j = 1..r the set of positions
 *             with at least j colours blocked; then the set of free
 *             positions.
 * Neither path stores the middle-out branching order: the counter path
 * computes it from T, the mask path from the free mask.
 * Each path processes forced moves in its own order, and no caller sees
 * it: a step that pauses on its quota undoes to its deepest open frame,
 * and an exhausted run reports no colouring.
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
 * B[c] is set.  The positions new to B[c] each gain one blocked colour,
 * so each moves from the set with at least j-1 blocked to the one with at
 * least j.  After each assignment a free position with r blocked colours
 * is a conflict, and the lowest with r-1 is forced to its one unblocked
 * colour.
 *
 * One run serves many cubes of its length: vdw_root clears the state and
 * applies the next cube's root assumptions.
 */
#include <stdlib.h>
#include <string.h>

#define ST_FOUND 1
#define ST_EXHAUSTED 2
#define ST_PAUSED 3

#define ORDER_LOWEST 0
#define ORDER_MOST_BLOCKED 1

typedef unsigned __int128 mask_t;

/* one decision level: the position decided, the colour tried there, the
 * largest colour used before it and, on the counter path, the trail mark */
typedef struct {
    int pos, color, maxused, mark;
} frame_t;

typedef struct {
    int r, k, T, order, masks;
    int status, depth, maxused, maxdepth;
    long long nodes;
    int *col;
    frame_t *frames;
    /* counter path: per progression a, ap[a * (r + 2)] holds its first
     * member, its step and, per colour c, the sum of the two members its
     * clause in c watches; watch[c] + wptr[p] holds the wlen[c * T + p]
     * clauses in colour c that watch position p */
    int *ap, *wptr, **watch, *wlen;
    unsigned char *blocked;
    int *nblocked;
    int *trail, trail_top;
    /* mask path: cur holds one frame (see F_*), all the T-position mask */
    mask_t *cur, *saved, all;
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

/* Assign p := c and propagate to a fixpoint; 0 on a conflict.  The trail
 * from where this propagation began is its queue: its colourings, in
 * order, between the blocks.  A watch list is compacted in place. */
static int c_propagate(run_t *s, int p, int c)
{
    int r = s->r, k = s->k, T = s->T, head = s->trail_top;
    size_t w = r + 2;
    c_assign(s, p, c);
    for (; head < s->trail_top; head++) {
        if (s->trail[head] >= 0)
            continue;
        int x = ~s->trail[head], cx = s->col[x];
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

/* The first free position of the branching order's sequence with the most
 * blocked colours, taken at once when it has enough (see _engine).  Item i
 * of middle_out(T) is h - j, or h + j when i and T differ in parity. */
static int c_select(run_t *s)
{
    int T = s->T, h = (T - 1) / 2, midout = s->order == ORDER_MOST_BLOCKED;
    /* a free position with r-1 blocked colours would have been forced */
    int enough = midout ? s->r - 2 : 0, best = -1, bestnb = -1;
    for (int i = 0; i < T; i++) {
        int j = (i + 1) / 2, p = midout ? ((i ^ T) & 1 ? h + j : h - j) : i;
        if (s->col[p] >= 0 || s->nblocked[p] <= bestnb)
            continue;
        best = p;
        bestnb = s->nblocked[p];
        if (bestnb >= enough)
            break;
    }
    return best;
}

/* ---- mask path ------------------------------------------------------- */

/* The frame: block b, colour c at s->cur[b * r + c], free at F_BLOCKS * r.
 * Block F_GE holds, at j-1, the positions with at least j colours blocked. */
enum { F_B, F_REFL, F_DIL_LO, F_DIL_HI, F_HALF_EVEN, F_HALF_ODD, F_GE, F_BLOCKS };

/* the positions with at least j colours blocked, for j = 1..r */
static mask_t *at_least(const run_t *s)
{
    return s->cur + F_GE * s->r - 1;
}

static void m_assign(run_t *s, int p, int c)
{
    int r = s->r;
    mask_t *f = s->cur;
    mask_t bit = (mask_t)1 << p;
    if (c > s->maxused)
        s->maxused = c;
    mask_t *refl = f + F_REFL * r + c, *dlo = f + F_DIL_LO * r + c,
           *dhi = f + F_DIL_HI * r + c, *half = f + F_HALF_EVEN * r + c,
           *half_odd = f + F_HALF_ODD * r + c;
    /* 2p-q from bit 127-q, 2q-p from bit 2q, (p+q)/2 from bit q/2 or
     * (q-1)/2 of the halving with p's parity */
    mask_t blocks = (2 * p > 127 ? *refl << (2 * p - 127) : *refl >> (127 - 2 * p))
                  | *dlo >> p | (*dhi << 1) << (127 - p)
                  | (p & 1 ? *half_odd << ((p + 1) / 2) : *half << (p / 2));
    mask_t fresh = blocks & s->all & ~f[F_B * r + c], *ge = at_least(s);
    f[F_B * r + c] |= fresh;
    for (int j = r; j > 1; j--)
        ge[j] |= ge[j - 1] & fresh;
    ge[1] |= fresh;
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
}

/* Assign p := c and propagate to a fixpoint; 0 on a conflict.  After
 * each assignment the lowest forced position takes its one unblocked
 * colour. */
static int m_propagate(run_t *s, int p, int c)
{
    int r = s->r;
    const mask_t *B = s->cur + F_B * r, *ge = at_least(s);
    /* only a root assumption can ask for a blocked colour: decisions skip
     * blocked colours and a forced move takes the unblocked one */
    if ((B[c] >> p) & 1)
        return 0;
    for (;;) {
        m_assign(s, p, c);
        mask_t freem = s->cur[F_BLOCKS * r];
        if (ge[r] & freem)
            return 0;
        mask_t forced = ge[r - 1] & freem;
        if (!forced)
            return 1;
        p = ctz128(forced);
        for (c = 0; (B[c] >> p) & 1; c++)
            ;
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

static int m_select(run_t *s)
{
    int r = s->r;
    mask_t freem = s->cur[F_BLOCKS * r], *ge = at_least(s);
    if (!freem)
        return -1;
    if (s->order == ORDER_LOWEST)
        return ctz128(freem);
    mask_t cand = freem;
    for (int j = r - 2; j >= 1; j--)
        if (ge[j] & freem) {
            cand = ge[j] & freem;
            break;
        }
    return m_midout_first(cand, s->T);
}

/* ---- shared search loop ---------------------------------------------- */

static int is_blocked(const run_t *s, int p, int c)
{
    if (s->masks)
        return (int)((s->cur[F_B * s->r + c] >> p) & 1);
    return s->blocked[p * s->r + c];
}

static int colour_at(const run_t *s, int p)
{
    if (!s->masks)
        return s->col[p];
    const mask_t *refl = s->cur + F_REFL * s->r;
    for (int c = 0; c < s->r; c++)
        if ((refl[c] >> (127 - p)) & 1)
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

/* Open decision level d at the next position to decide, saving the
 * state to return to there; 0 when every position is coloured. */
static int push_frame(run_t *s, int d)
{
    int q = select_position(s);
    if (q < 0)
        return 0;
    frame_t *f = s->frames + d;
    f->pos = q;
    f->color = -1;
    f->maxused = s->maxused;
    f->mark = s->trail_top;
    if (s->masks) {
        size_t w = F_BLOCKS * (size_t)s->r + 1;
        memcpy(s->saved + d * w, s->cur, w * sizeof(mask_t));
    }
    s->depth = d;
    return 1;
}

static void restore_frame(run_t *s, int d)
{
    size_t w = F_BLOCKS * (size_t)s->r + 1;
    if (s->masks)
        memcpy(s->cur, s->saved + d * w, w * sizeof(mask_t));
    else
        c_undo(s, s->frames[d].mark);
}

int vdw_step(run_t *s, long long quota)
{
    if (s->status == ST_FOUND || s->status == ST_EXHAUSTED)
        return s->status;
    int r = s->r, status;
    long long nodes = 0;
    for (;;) {
        if (nodes >= quota) {
            restore_frame(s, s->depth);
            status = ST_PAUSED;
            break;
        }
        int d = s->depth;
        frame_t *f = s->frames + d;
        /* a frame where no colour was tried yet still holds its state */
        if (f->color >= 0)
            restore_frame(s, d);
        int p = f->pos, cmax = f->maxused + 1 < r - 1 ? f->maxused + 1 : r - 1;
        int c = f->color + 1;
        while (c <= cmax && is_blocked(s, p, c))
            c++;
        if (c > cmax) {
            if (--s->depth < 0) {
                status = ST_EXHAUSTED;
                break;
            }
            continue;
        }
        f->color = c;
        nodes++;
        if (d + 1 > s->maxdepth)
            s->maxdepth = d + 1;
        s->maxused = f->maxused;
        if (propagate(s, p, c) && !push_frame(s, d + 1)) {
            status = ST_FOUND;
            break;
        }
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
        out[p] = s->status == ST_EXHAUSTED ? -1 : colour_at(s, p);
}

void vdw_free(run_t *s)
{
    if (!s)
        return;
    if (s->watch)
        for (int c = 0; c < s->r; c++)
            free(s->watch[c]);
    void *blocks[] = {
        s->col, s->frames, s->ap, s->wptr, s->watch, s->wlen,
        s->blocked, s->nblocked, s->trail, s->cur, s->saved,
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
    if (!s->ap || !s->wptr || !s->watch || !s->wlen || !s->blocked
        || !s->nblocked || !s->trail)
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

static int build_masks(run_t *s)
{
    int T = s->T, r = s->r;
    size_t w = F_BLOCKS * (size_t)r + 1;
    s->cur = malloc(w * sizeof(mask_t));
    s->saved = malloc((size_t)(T + 1) * w * sizeof(mask_t));
    if (!s->cur || !s->saved)
        return 0;
    s->all = T == 128 ? ~(mask_t)0 : ((mask_t)1 << T) - 1;
    return 1;
}

/* A run over positions 0..T-1, to be given its root assumptions by
 * vdw_root; NULL when memory runs out.  The caller validates the
 * arguments (r >= 2, k >= 3, T >= 1). */
run_t *vdw_new(int r, int k, int T, int order)
{
    run_t *s = calloc(1, sizeof(run_t));
    if (!s)
        return NULL;
    s->r = r;
    s->k = k;
    s->T = T;
    s->order = order;
    s->masks = k == 3 && T <= 128;
    s->col = malloc(T * sizeof(int));
    s->frames = malloc((T + 1) * sizeof(frame_t));
    if (!s->col || !s->frames || !(s->masks ? build_masks(s) : build_watches(s))) {
        vdw_free(s);
        return NULL;
    }
    for (int p = 0; p < T; p++)
        s->col[p] = -1;
    return s;
}

/* Start the search of s afresh from nothing coloured, with the given root
 * assumptions applied and propagated; returns the status.  On the counter
 * path the watches stay where they are: with nothing coloured, any two
 * members of a clause may be its watches.  The caller validates the
 * assumptions (in range). */
int vdw_root(run_t *s, int n_assume, const int *assume_pos, const int *assume_col)
{
    s->nodes = 0;
    s->maxdepth = s->depth = 0;
    s->maxused = -1;
    if (s->masks) {
        memset(s->cur, 0, F_BLOCKS * (size_t)s->r * sizeof(mask_t));
        s->cur[F_BLOCKS * s->r] = s->all;
    } else {
        c_undo(s, 0);
    }
    for (int i = 0; i < n_assume; i++) {
        int p = assume_pos[i], c = assume_col[i], have = colour_at(s, p);
        if (have == c)
            continue;
        if (have >= 0 || !propagate(s, p, c))
            return s->status = ST_EXHAUSTED;
    }
    return s->status = push_frame(s, 0) ? ST_PAUSED : ST_FOUND;
}
