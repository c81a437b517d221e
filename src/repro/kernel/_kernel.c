/* Native columnar ingest kernel for the DDSketch reproduction.
 *
 * Compiled on demand by repro/kernel/native.py with
 *     cc -O2 -fPIC -shared -ffp-contract=off -fno-fast-math _kernel.c -lm
 * and loaded through ctypes.  Every function must be bit-exact with the
 * NumPy reference backend (repro/kernel/reference.py):
 *
 *   - only correctly-rounded IEEE-754 operations are used (+, -, *, /,
 *     ceil, frexp); -ffp-contract=off forbids the compiler from fusing
 *     multiply-adds, which would change polynomial rounding;
 *   - the logarithmic mapping consumes a *precomputed* numpy.log array
 *     (libm's log and numpy's SIMD log differ in the last ulp on some
 *     inputs), so the one transcendental stays on the numpy side;
 *   - all accumulation loops run in input order, matching numpy.bincount's
 *     sequential semantics (order-sensitive pairwise reductions such as
 *     numpy.sum never run here - they stay in shared Python code).
 *
 * The float64 wire codec assumes a little-endian host; native.py refuses to
 * load this library on big-endian machines.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define MODE_LOG 0
#define MODE_LINEAR 1
#define MODE_QUADRATIC 2
#define MODE_CUBIC 3

/* Polynomial log2 approximations over one octave; identical arithmetic to
 * the _approx_batch methods in repro/mapping/interpolated.py. */
static double approx_poly(int32_t mode, double significand)
{
    double t = significand - 1.0;
    if (mode == MODE_LINEAR)
        return t;
    if (mode == MODE_QUADRATIC)
        return t * (4.0 - t) / 3.0;
    {
        const double a = 6.0 / 35.0;
        const double b = -3.0 / 5.0;
        const double c = 10.0 / 7.0;
        return ((a * t + b) * t + c) * t;
    }
}

/* Fused sign split + bucket-key computation.
 *
 * values:   n float64 samples (any sign).
 * logs:     precomputed log(|values|) when mode == MODE_LOG, else unused.
 * keys:     out, one int64 bucket key per sample (magnitude key for
 *           negatives; 0 for zero-bucket samples).
 * flags:    out, one int8 sign per sample (+1 / -1 / 0).
 * stats:    out[6] = {num_pos, num_neg, pos_min, pos_max, neg_min, neg_max}.
 */
void repro_compute_keys(const double *values, const double *logs, int64_t n,
                        int32_t mode, double multiplier, double key_offset,
                        double min_possible, int64_t *keys, int8_t *flags,
                        int64_t *stats)
{
    int64_t npos = 0, nneg = 0;
    int64_t pmin = INT64_MAX, pmax = INT64_MIN;
    int64_t nmin = INT64_MAX, nmax = INT64_MIN;
    for (int64_t i = 0; i < n; i++) {
        double v = values[i];
        double mag;
        int8_t flag;
        if (v > min_possible) {
            flag = 1;
            mag = v;
        } else if (v < -min_possible) {
            flag = -1;
            mag = -v;
        } else {
            flags[i] = 0;
            keys[i] = 0;
            continue;
        }
        double approx;
        if (mode == MODE_LOG) {
            approx = logs[i];
        } else {
            int exponent;
            double mantissa = frexp(mag, &exponent);
            approx = (double)(exponent - 1) + approx_poly(mode, 2.0 * mantissa);
        }
        double keyd = ceil(approx * multiplier);
        if (key_offset != 0.0)
            keyd += key_offset;
        int64_t key = (int64_t)keyd; /* same truncation as ndarray.astype */
        keys[i] = key;
        flags[i] = flag;
        if (flag == 1) {
            npos++;
            if (key < pmin) pmin = key;
            if (key > pmax) pmax = key;
        } else {
            nneg++;
            if (key < nmin) nmin = key;
            if (key > nmax) nmax = key;
        }
    }
    stats[0] = npos;
    stats[1] = nneg;
    stats[2] = pmin;
    stats[3] = pmax;
    stats[4] = nmin;
    stats[5] = nmax;
}

/* Bin keys into a contiguous window [lo, hi], clipping out-of-window keys
 * onto the boundary cells.  With flags != NULL only samples whose flag
 * equals `want` participate (the fused unit-weight path); with flags == NULL
 * every sample does (pre-compressed keys).  counts must be zeroed by the
 * caller and hold hi - lo + 1 cells.  Accumulation order matches
 * numpy.bincount (input order). */
void repro_bin_select(const int64_t *keys, const int8_t *flags, int8_t want,
                      int64_t n, const double *weights, int64_t lo, int64_t hi,
                      double *counts)
{
    for (int64_t i = 0; i < n; i++) {
        if (flags && flags[i] != want)
            continue;
        int64_t k = keys[i];
        if (k < lo)
            k = lo;
        else if (k > hi)
            k = hi;
        counts[k - lo] += weights ? weights[i] : 1.0;
    }
}

/* Per-group key range in one pass: mins[g] / maxs[g] end as the smallest /
 * largest key of group g.  The caller fills mins with INT64_MAX and maxs
 * with INT64_MIN, so a group without samples keeps min > max. */
void repro_group_key_ranges(const int64_t *groups, const int64_t *keys, int64_t n,
                            int64_t *mins, int64_t *maxs)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t g = groups[i];
        int64_t k = keys[i];
        if (k < mins[g])
            mins[g] = k;
        if (k > maxs[g])
            maxs[g] = k;
    }
}

/* Grouped binning into per-group rows: cells[bases[group] + key] += weight,
 * in input order.  cells must be zeroed by the caller; the caller lays the
 * rows out so that every index falls inside the buffer. */
void repro_bin_grouped(const int64_t *groups, const int64_t *keys, int64_t n,
                       const double *weights, const int64_t *bases, double *cells)
{
    for (int64_t i = 0; i < n; i++)
        cells[bases[groups[i]] + keys[i]] += weights ? weights[i] : 1.0;
}

/* ---------------------------------------------------------------------- */
/* Wire primitives: base-128 varints, zig-zag integers, float64 counts.     */

static int64_t put_varint(uint8_t *out, int64_t pos, uint64_t value)
{
    while (value > 0x7F) {
        out[pos++] = (uint8_t)((value & 0x7F) | 0x80);
        value >>= 7;
    }
    out[pos++] = (uint8_t)value;
    return pos;
}

static int64_t put_zigzag(uint8_t *out, int64_t pos, int64_t value)
{
    return put_varint(out, pos, ((uint64_t)value << 1) ^ (uint64_t)(value >> 63));
}

static int64_t put_double(uint8_t *out, int64_t pos, double value)
{
    memcpy(out + pos, &value, 8);
    return pos + 8;
}

/* Read one varint that fits uint64 from buf[*pos, end); returns 0, or -1 on
 * truncation or a wider value (decode_varint's errors, or OverflowError). */
static int get_u64(const uint8_t *buf, int64_t end, int64_t *pos, uint64_t *value)
{
    uint64_t result = 0;
    int64_t p = *pos;
    for (int shift = 0; shift < 70; shift += 7) {
        if (p >= end)
            return -1;
        uint64_t low = buf[p] & 0x7F;
        if (shift == 63 && low > 1)
            return -1;
        result |= low << shift;
        if (!(buf[p++] & 0x80)) {
            *pos = p;
            *value = result;
            return 0;
        }
    }
    return -1;
}

/* A header varint below 2**63 (counts, codes, lengths, bin limits). */
static int get_count(const uint8_t *buf, int64_t end, int64_t *pos, int64_t *value)
{
    uint64_t raw;
    if (get_u64(buf, end, pos, &raw) < 0 || raw > (uint64_t)INT64_MAX)
        return -1;
    *value = (int64_t)raw;
    return 0;
}

static int get_double(const uint8_t *buf, int64_t end, int64_t *pos, double *value)
{
    if (*pos + 8 > end)
        return -1;
    memcpy(value, buf + *pos, 8);
    *pos += 8;
    return 0;
}

/* numpy.add.reduce of a contiguous float64 array, operation for operation:
 * NumPy's pairwise summation (8 accumulators over blocks of at most 128,
 * halving above), so a store's running count equals float(counts.sum()). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* float(numpy.sum(values)) - exposed for the load-time self-test. */
double repro_pairwise_sum(const double *values, int64_t n)
{
    return 0.0 + pairwise_sum(values, n);
}

/* Encode n (zig-zag varint delta, little-endian float64 count) pairs into
 * out (caller allocates >= n * 18 bytes); returns the bytes written.
 * Byte-identical to encode_zigzag/encode_float in serialization/encoding.py. */
int64_t repro_encode_pairs(const int64_t *deltas, const double *counts,
                           int64_t n, uint8_t *out)
{
    int64_t pos = 0;
    for (int64_t i = 0; i < n; i++) {
        pos = put_zigzag(out, pos, deltas[i]);
        pos = put_double(out, pos, counts[i]);
    }
    return pos;
}

/* Decode n pairs starting at payload[pos]; fills deltas/counts and returns
 * the next offset, or -1 on any anomaly (truncation, over-long varint, value
 * outside uint64) - the Python wrapper then falls back to the pure loop,
 * which reproduces the exact historical exception (DeserializationError or
 * OverflowError). */
int64_t repro_decode_pairs(const uint8_t *payload, int64_t len, int64_t pos,
                           int64_t n, int64_t *deltas, double *counts)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t zigzag;
        if (get_u64(payload, len, &pos, &zigzag) < 0)
            return -1;
        deltas[i] = (int64_t)(zigzag >> 1) ^ -((int64_t)(zigzag & 1));
        if (get_double(payload, len, &pos, &counts[i]) < 0)
            return -1;
    }
    return pos;
}

/* ---------------------------------------------------------------------- */
/* Columnar frame codec: frame v3 entries around version-2 sketch payloads  */
/* (layouts in serialization/frame.py and serialization/binary_codec.py).   */
/* Both passes return -1 on any input they do not handle byte for byte; the */
/* Python side then runs the per-sketch oracle, which encodes the frame or  */
/* raises its exact error.                                                  */

#define STORE_DENSE 0
#define STORE_SPARSE 1
#define STORE_LOWEST 2
#define STORE_HIGHEST 3
#define STORE_UNIFORM 4

#define MAX_KEY_SPAN ((int64_t)1 << 23)
#define MAX_STRING ((int64_t)1 << 16)
#define MAX_COLLAPSES 64

/* Encode-side store columns (one row per store, positive store first). */
enum { EN_CODE, EN_BIN_LIMIT, EN_COLLAPSES, EN_WINDOW, EN_OFFSET, EN_START, EN_LENGTH, EN_COLS };

static int64_t encode_store(const int64_t *col, const double *cells, const int64_t *keys,
                            const double *counts, uint8_t *out, int64_t pos)
{
    int64_t code = col[EN_CODE], start = col[EN_START], length = col[EN_LENGTH];
    if (code < 0 || col[EN_BIN_LIMIT] < 0 || col[EN_COLLAPSES] < 0)
        return -1;
    pos = put_varint(out, pos, (uint64_t)code);
    pos = put_varint(out, pos, (uint64_t)col[EN_BIN_LIMIT]);
    if (code == STORE_UNIFORM)
        pos = put_varint(out, pos, (uint64_t)col[EN_COLLAPSES]);
    uint64_t previous = 0;
    if (col[EN_WINDOW]) {
        /* A dense window: the non-empty cells (> 0.0, as nonzero_bins). */
        const double *window = cells + start;
        uint64_t nonzero = 0;
        for (int64_t i = 0; i < length; i++)
            nonzero += window[i] > 0.0;
        pos = put_varint(out, pos, nonzero);
        for (int64_t i = 0; i < length; i++) {
            if (!(window[i] > 0.0))
                continue;
            uint64_t key = (uint64_t)col[EN_OFFSET] + (uint64_t)i;
            pos = put_zigzag(out, pos, (int64_t)(key - previous));
            pos = put_double(out, pos, window[i]);
            previous = key;
        }
    } else {
        pos = put_varint(out, pos, (uint64_t)length);
        for (int64_t i = start; i < start + length; i++) {
            pos = put_zigzag(out, pos, (int64_t)((uint64_t)keys[i] - previous));
            pos = put_double(out, pos, counts[i]);
            previous = (uint64_t)keys[i];
        }
    }
    return pos;
}

/* Encode n frame entries into out; returns the bytes written, or -1.
 *
 * key_bytes/key_ends: every entry's series-key bytes end to end.
 * ints:   n x 2   mapping code, sketch collapse count.
 * floats: n x 8   accuracy, offset, initial accuracy, zero count, count,
 *                 sum, min, max.
 * stores: 2n x EN_COLS; a window store's cells start at its key offset,
 *         any other store lists its (keys, counts) pairs.
 * out must hold the bound computed in native.py. */
int64_t repro_encode_frame_columns(int64_t n, const uint8_t *key_bytes, const int64_t *key_ends,
                                   const int64_t *ints, const double *floats,
                                   const int64_t *stores, const double *cells,
                                   const int64_t *keys, const double *counts, uint8_t *out)
{
    int64_t pos = 0, key_start = 0;
    for (int64_t e = 0; e < n; e++) {
        memcpy(out + pos, key_bytes + key_start, (size_t)(key_ends[e] - key_start));
        pos += key_ends[e] - key_start;
        key_start = key_ends[e];
        const int64_t *header = ints + 2 * e;
        const double *summary = floats + 8 * e;
        if (header[0] < 0 || header[1] < 0)
            return -1;
        /* The sketch is written 10 bytes on (the widest length varint),
         * then slid back behind its length. */
        int64_t body = pos + 10, p = body;
        out[p++] = 'D';
        out[p++] = 'D';
        out[p++] = 2;
        p = put_varint(out, p, (uint64_t)header[0]);
        p = put_double(out, p, summary[0]);
        p = put_double(out, p, summary[1]);
        p = put_varint(out, p, (uint64_t)header[1]);
        for (int j = 2; j < 8; j++)
            p = put_double(out, p, summary[j]);
        for (int s = 0; s < 2; s++) {
            p = encode_store(stores + (2 * e + s) * EN_COLS, cells, keys, counts, out, p);
            if (p < 0)
                return -1;
        }
        int64_t length = p - body;
        pos = put_varint(out, pos, (uint64_t)length);
        memmove(out + pos, out + body, (size_t)length);
        pos += length;
    }
    return pos;
}

/* Decode-side store columns. */
enum {
    DE_CODE, DE_BIN_LIMIT, DE_COLLAPSES, DE_PAIR_START, DE_PAIRS,
    DE_LO, DE_SIZE, DE_COLLAPSED, DE_POSITIVE, DE_CELL_START, DE_COLS
};

static int skip_string(const uint8_t *buf, int64_t len, int64_t *pos)
{
    int64_t length;
    if (get_count(buf, len, pos, &length) < 0 || length > MAX_STRING || length > len - *pos)
        return -1;
    *pos += length;
    return 0;
}

/* One store of a version-2 sketch ending at `end`.  Fills its column row,
 * appends its pairs at keys/counts[*pairs], and for the dense families
 * places the window add_batch gives an empty store (cells counted in
 * *cells).  budget[0] != 0 caps the dense key spans at budget[1] cells. */
static int decode_store(const uint8_t *buf, int64_t end, int64_t *pos, int64_t *col,
                        double *total, int64_t *keys, double *counts, int64_t *pairs,
                        int64_t *cells, int64_t *budget, int64_t dense_chunk,
                        int64_t default_limit)
{
    int64_t code, bin_limit, collapses = 0, n;
    if (get_count(buf, end, pos, &code) < 0 || code > STORE_UNIFORM)
        return -1;
    if (get_count(buf, end, pos, &bin_limit) < 0)
        return -1;
    if (code == STORE_UNIFORM
        && (get_count(buf, end, pos, &collapses) < 0 || collapses > MAX_COLLAPSES))
        return -1;
    if (get_count(buf, end, pos, &n) < 0)
        return -1;
    memset(col, 0, DE_COLS * sizeof(int64_t));
    col[DE_CODE] = code;
    /* The limit the decoded store gets: a bounded store reads a zero (a
     * uniform one also a one) as the default. */
    if ((code == STORE_LOWEST || code == STORE_HIGHEST) && bin_limit < 1)
        bin_limit = default_limit;
    else if (code == STORE_UNIFORM && bin_limit < 2)
        bin_limit = default_limit;
    col[DE_BIN_LIMIT] = bin_limit;
    col[DE_COLLAPSES] = collapses;
    col[DE_PAIR_START] = *pairs;
    col[DE_PAIRS] = n;
    col[DE_CELL_START] = *cells;
    *total = 0.0;
    if (n == 0)
        return 0;
    if (n > (end - *pos) / 9)
        return -1;
    int64_t *k = keys + *pairs;
    double *c = counts + *pairs;
    uint64_t key = 0;
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (int64_t i = 0; i < n; i++) {
        uint64_t zigzag;
        if (get_u64(buf, end, pos, &zigzag) < 0 || get_double(buf, end, pos, &c[i]) < 0)
            return -1;
        /* add_batch takes its per-item path for counts <= 0, a window this
         * pass does not model; non-finite counts are errors. */
        if (!(c[i] > 0.0) || !isfinite(c[i]))
            return -1;
        key += (zigzag >> 1) ^ -(zigzag & 1);
        k[i] = (int64_t)key;
        if (k[i] < lo) lo = k[i];
        if (k[i] > hi) hi = k[i];
    }
    if (lo < -((int64_t)1 << 62) || hi > ((int64_t)1 << 62) || hi - lo >= MAX_KEY_SPAN)
        return -1;
    int64_t span = hi - lo + 1;
    if (code != STORE_SPARSE && budget[0]) {
        budget[1] -= span;
        if (budget[1] < 0)
            return -1;
    }
    *pairs += n;
    *total = 0.0 + pairwise_sum(c, n);
    int64_t limit = col[DE_BIN_LIMIT];
    switch (code) {
    case STORE_DENSE:
        col[DE_LO] = lo - dense_chunk / 2;
        col[DE_SIZE] = dense_chunk;
        if (hi >= col[DE_LO] + dense_chunk) {
            int64_t missing = hi - (col[DE_LO] + dense_chunk) + 1;
            col[DE_SIZE] += (missing + dense_chunk - 1) / dense_chunk * dense_chunk;
        }
        break;
    case STORE_LOWEST:
        col[DE_COLLAPSED] = span > limit;
        col[DE_LO] = span > limit ? hi - limit + 1 : lo;
        col[DE_SIZE] = hi - col[DE_LO] + 1;
        break;
    case STORE_HIGHEST:
        col[DE_COLLAPSED] = span > limit;
        col[DE_LO] = lo;
        col[DE_SIZE] = span > limit ? limit : span;
        break;
    case STORE_UNIFORM:
        /* A fold during the rebuild is the oracle's "span exceeds the
         * declared bin limit" error. */
        if (span > limit)
            return -1;
        break;
    }
    *cells += col[DE_SIZE];
    return 0;
}

/* Decode up to n frame entries starting at payload[pos]; returns the offset
 * after the last one, or -1.
 *
 * ints:   n x 4   key start, key end (the entry's series-key bytes), mapping
 *                 code, sketch collapse count.
 * Store rows carry the bin limit the decoded store gets, defaults applied.
 * floats: n x 8   as for repro_encode_frame_columns.
 * stores: 2n x DE_COLS, totals: 2n pairwise count totals.
 * keys/counts: every store's pairs end to end (room for len / 9).
 * *cells: total window cells, for repro_fill_frame_windows. */
int64_t repro_decode_frame_columns(const uint8_t *buf, int64_t len, int64_t pos, int64_t n,
                                   int64_t *budget, int64_t dense_chunk, int64_t default_limit,
                                   int64_t *ints, double *floats, int64_t *stores,
                                   double *totals, int64_t *keys, double *counts,
                                   int64_t *cells)
{
    int64_t pairs = 0, tags, length, version, value;
    *cells = 0;
    for (int64_t e = 0; e < n; e++) {
        int64_t *header = ints + 4 * e;
        double *summary = floats + 8 * e;
        header[0] = pos;
        if (skip_string(buf, len, &pos) < 0 || get_count(buf, len, &pos, &tags) < 0
            || tags > (len - pos) / 2)
            return -1;
        for (int64_t t = 0; t < 2 * tags; t++)
            if (skip_string(buf, len, &pos) < 0)
                return -1;
        header[1] = pos;
        if (get_count(buf, len, &pos, &length) < 0 || length > len - pos)
            return -1;
        int64_t end = pos + length;
        if (length < 2 || buf[pos] != 'D' || buf[pos + 1] != 'D')
            return -1;
        pos += 2;
        /* Version-1 payloads and every anomaly go to the oracle. */
        if (get_count(buf, end, &pos, &version) < 0 || version != 2)
            return -1;
        if (get_count(buf, end, &pos, &value) < 0 || value > 3)
            return -1;
        header[2] = value;
        if (get_double(buf, end, &pos, &summary[0]) < 0
            || get_double(buf, end, &pos, &summary[1]) < 0)
            return -1;
        if (get_count(buf, end, &pos, &value) < 0 || value > MAX_COLLAPSES)
            return -1;
        header[3] = value;
        for (int j = 2; j < 8; j++)
            if (get_double(buf, end, &pos, &summary[j]) < 0)
                return -1;
        if (!(summary[2] > 0.0 && summary[2] < 1.0))
            return -1;
        if (!isfinite(summary[3]) || summary[3] < 0.0 || !isfinite(summary[4])
            || summary[4] < 0.0 || !isfinite(summary[5]))
            return -1;
        for (int s = 0; s < 2; s++) {
            int64_t row = 2 * e + s;
            if (decode_store(buf, end, &pos, stores + row * DE_COLS, totals + row, keys,
                             counts, &pairs, cells, budget, dense_chunk, default_limit) < 0)
                return -1;
        }
        if (pos != end)
            return -1;
    }
    return pos;
}

/* Bin every dense-window store's pairs into its window of cells (zeroed by
 * the caller), clipping out-of-window keys onto the boundary cells in input
 * order, as bin_selection does, and count its positive cells. */
void repro_fill_frame_windows(int64_t nstores, int64_t *stores, const int64_t *keys,
                              const double *counts, double *cells)
{
    for (int64_t s = 0; s < nstores; s++) {
        int64_t *col = stores + s * DE_COLS;
        int64_t code = col[DE_CODE];
        if (col[DE_PAIRS] == 0 || (code != STORE_DENSE && code != STORE_LOWEST
                                   && code != STORE_HIGHEST))
            continue;
        double *window = cells + col[DE_CELL_START];
        int64_t lo = col[DE_LO], hi = col[DE_LO] + col[DE_SIZE] - 1;
        for (int64_t i = col[DE_PAIR_START]; i < col[DE_PAIR_START] + col[DE_PAIRS]; i++) {
            int64_t k = keys[i] < lo ? lo : (keys[i] > hi ? hi : keys[i]);
            window[k - lo] += counts[i];
        }
        int64_t positive = 0;
        for (int64_t j = 0; j < col[DE_SIZE]; j++)
            positive += window[j] > 0.0;
        col[DE_POSITIVE] = positive;
    }
}

/* ---------------------------------------------------------------------- */
/* Bulk store merge: Store.merge of dense-family store windows, in C.       */
/* Store.merge (store/dense.py, store/collapsing.py) is the oracle.  One    */
/* helper, merge_window, applies its rules to one (target, source) pair;   */
/* repro_merge_windows takes the pairs whose target window stays,          */
/* repro_move_windows the pairs whose target window grows or moves, and    */
/* repro_fold_windows folds many windows into one.                         */

#define MERGE_DENSE 0
#define MERGE_LOWEST 1
#define MERGE_HIGHEST 2

/* Keys beyond +-2**50 (no mapping makes them) leave the window arithmetic
 * below to Store.merge, as do chunk divisions Python would round apart. */
#define KEY_LIMIT ((int64_t)1 << 50)

/* Pair columns: the target's key offset, kind and bin limit (a plain dense
 * store's chunk size); the source window's key offset, buffer (an index
 * into `sources`), first cell in that buffer and size. */
enum {
    MW_OFFSET, MW_KIND, MW_LIMIT, MW_SOURCE_OFFSET, MW_SOURCE_BUFFER, MW_SOURCE_START,
    MW_SOURCE_SIZE, MW_COLS
};

/* A target store as Store.merge sees it: its window's cells from key
 * `offset`, its kind, bin limit or chunk size, running count, positive
 * cells and collapse flag.  `bins` may hold up to `capacity` cells. */
typedef struct {
    double *bins;
    int64_t capacity, offset, size, kind, limit, positive, collapsed;
    double count;
} Window;

static int any_positive(const double *bins, int64_t size)
{
    for (int64_t j = 0; j < size; j++)
        if (bins[j] > 0.0)
            return 1;
    return 0;
}

static int64_t used_edge(const double *bins, int64_t size, int top)
{
    if (top) {
        for (int64_t j = size - 1; j >= 0; j--)
            if (bins[j] > 0.0)
                return j;
    } else {
        for (int64_t j = 0; j < size; j++)
            if (bins[j] > 0.0)
                return j;
    }
    return -1;
}

/* The first and last used cell of each of n windows (each window's size and
 * address in `windows`), as DenseStore.min_key and max_key find them: -1
 * for both where no cell is positive.  Windows are read in place. */
void repro_used_edges(int64_t n, const int64_t *sizes, const int64_t *addresses, int64_t *first,
                      int64_t *last)
{
    for (int64_t i = 0; i < n; i++) {
        const double *bins = (const double *)(intptr_t)addresses[i];
        first[i] = used_edge(bins, sizes[i], 0);
        last[i] = first[i] < 0 ? -1 : used_edge(bins, sizes[i], 1);
    }
}

/* float(numpy.sum(a[:n])) of a contiguous slice. */
static double slice_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

static int beyond_limit(int64_t key)
{
    return key < -KEY_LIMIT || key > KEY_LIMIT;
}

/* Whether _extend_range(min_key, max_key) would keep a holding target's
 * window and collapse flag; lo and hi are the source's used keys as target
 * indices.  The collapsing stores re-anchor on the target's used edge bin,
 * so an unused edge bin moves the window unless the source fills it. */
static int window_stays(const Window *t, int64_t lo, int64_t hi)
{
    const double *bins = t->bins;
    int64_t size = t->size;
    if (size <= 0 || lo < 0 || hi >= size)
        return 0;
    if (t->kind == MERGE_DENSE)
        return 1;
    if (size > t->limit)
        return 0;
    if (t->kind == MERGE_LOWEST)
        return bins[size - 1] > 0.0 || (hi == size - 1 && any_positive(bins, size));
    return bins[0] > 0.0 || (lo == 0 && any_positive(bins, size));
}

/* The window _extend_range(min_key, max_key) gives the target, as
 * [*first, *last]; sets the collapse flag where it does.  Returns 0 where
 * that is left to Store.merge (a collapsing target holding no used bin). */
static int plan_window(Window *t, int64_t min_key, int64_t max_key, int64_t *first, int64_t *last)
{
    int64_t limit = t->limit;
    if (limit <= 0)
        return 0;
    if (t->size <= 0) {
        /* An empty store: _initialize, or the collapsing stores' anchoring. */
        if (t->kind == MERGE_DENSE) {
            *first = min_key - limit / 2;
            *last = *first + limit - 1;
            if (max_key > *last)
                *last += (int64_t)ceil((double)(max_key - *last) / (double)limit) * limit;
        } else if (t->kind == MERGE_LOWEST) {
            *last = max_key;
            *first = max_key - limit + 1 > min_key ? max_key - limit + 1 : min_key;
            if (*first > min_key)
                t->collapsed = 1;
        } else {
            *first = min_key;
            *last = min_key + limit - 1 < max_key ? min_key + limit - 1 : max_key;
            if (*last < max_key)
                t->collapsed = 1;
        }
        return 1;
    }
    int64_t window_first = t->offset, window_last = t->offset + t->size - 1;
    if (t->kind == MERGE_DENSE) {
        /* _extend_below, then _extend_above, by whole chunks. */
        *first = window_first;
        *last = window_last;
        if (min_key < *first)
            *first -= (int64_t)ceil((double)(*first - min_key) / (double)limit) * limit;
        if (max_key > *last)
            *last += (int64_t)ceil((double)(max_key - *last) / (double)limit) * limit;
    } else if (t->kind == MERGE_LOWEST) {
        int64_t top = used_edge(t->bins, t->size, 1);
        if (top < 0)
            return 0;
        *last = window_first + top > max_key ? window_first + top : max_key;
        *first = window_first < min_key ? window_first : min_key;
        if (*last - *first + 1 > limit)
            *first = *last - limit + 1;
        if (*first > min_key)
            t->collapsed = 1;
    } else {
        int64_t bottom = used_edge(t->bins, t->size, 0);
        if (bottom < 0)
            return 0;
        *first = window_first + bottom < min_key ? window_first + bottom : min_key;
        *last = window_last > max_key ? window_last : max_key;
        if (*last - *first + 1 > limit)
            *last = *first + limit - 1;
        if (*last < max_key)
            t->collapsed = 1;
    }
    return 1;
}

/* _move_window / _extend_below / _extend_above: the target's window becomes
 * [first, last], built in dest (t->bins itself, or a buffer apart from it).
 * The overlap moves, and the rest folds onto the collapsing side (a plain
 * store only grows, so nothing folds).  A collapsing store's positive cells
 * are counted again, as _move_window counts them. */
static void move_window(Window *t, double *dest, int64_t first, int64_t last)
{
    const double *old = t->bins;
    int64_t old_size = t->size;
    int64_t size = last - first + 1;
    int64_t start = t->offset - first;
    int64_t low = start < 0 ? -start : 0;
    int64_t high = old_size < size - start ? old_size : size - start;
    double folded;
    if (low < high) {
        folded = slice_sum(old, low) + slice_sum(old + high, old_size - high);
        memmove(dest + start + low, old + low, (size_t)(high - low) * sizeof(double));
        memset(dest, 0, (size_t)(start + low) * sizeof(double));
        memset(dest + start + high, 0, (size_t)(size - start - high) * sizeof(double));
    } else {
        folded = slice_sum(old, old_size);
        memset(dest, 0, (size_t)size * sizeof(double));
    }
    if (folded > 0.0) {
        dest[t->kind == MERGE_HIGHEST ? size - 1 : 0] += folded;
        t->collapsed = 1;
    }
    t->bins = dest;
    t->offset = first;
    t->size = size;
    if (t->kind != MERGE_DENSE) {
        int64_t positive = 0;
        for (int64_t j = 0; j < size; j++)
            positive += dest[j] > 0.0;
        t->positive = positive;
    }
}

/* _merge_dense's addition into the target's window: the overlap cell by
 * cell, and the source's weight outside the window folded onto the edge
 * bins. */
static void add_window(Window *t, const double *source, int64_t source_offset,
                       int64_t source_size, double count)
{
    double *bins = t->bins;
    int64_t size = t->size;
    int64_t start = source_offset - t->offset;
    int64_t low = start > 0 ? start : 0;
    int64_t high = start + source_size < size ? start + source_size : size;
    int64_t positive = 0;
    const double *cells = source - start;
    for (int64_t j = low; j < high; j++) {
        /* No branch on the data: this loop is most of a fold's time. */
        double bin = bins[j], cell = cells[j];
        positive += (bin == 0.0) & (cell > 0.0);
        bins[j] = bin + cell;
    }
    if (start < 0) {
        double below = slice_sum(source, -start < source_size ? -start : source_size);
        if (below > 0.0) {
            positive += bins[0] == 0.0;
            bins[0] += below;
        }
    }
    if (start + source_size > size) {
        int64_t from = size - start > 0 ? size - start : 0;
        double above = slice_sum(source + from, source_size - from);
        if (above > 0.0) {
            positive += bins[size - 1] == 0.0;
            bins[size - 1] += above;
        }
    }
    t->positive += positive;
    t->count += count;
}

#define STAY 0 /* add in place only where the window stays */
#define MOVE 1 /* only where the window moves, built in dest */
#define FOLD 2 /* either, a moved window built in place */

/* Store.merge of a source window holding weight into t, by `mode`; a moved
 * or re-anchored window is built in dest (at most dest_cells cells).
 * Returns 1, or 0 for a pair left to Store.merge, with t untouched. */
static int merge_window(Window *t, const double *source, int64_t source_offset,
                        int64_t source_size, double count, int mode, double *dest,
                        int64_t dest_cells)
{
    int64_t first_used = used_edge(source, source_size, 0);
    if (first_used < 0 || beyond_limit(t->offset) || beyond_limit(source_offset)
        || t->kind < MERGE_DENSE || t->kind > MERGE_HIGHEST)
        return 0;
    int64_t min_key = source_offset + first_used;
    int64_t max_key = source_offset + used_edge(source, source_size, 1);
    if (t->size > 0 && t->count <= 0.0) {
        /* An emptied target re-anchors: Store.merge clears it first. */
        if (mode != FOLD)
            return 0;
        t->size = 0;
        t->offset = 0;
        t->count = 0.0;
        t->positive = 0;
        t->collapsed = 0;
    }
    if (window_stays(t, min_key - t->offset, max_key - t->offset)) {
        if (mode == MOVE)
            return 0;
        add_window(t, source, source_offset, source_size, count);
        return 1;
    }
    if (mode == STAY)
        return 0;
    Window planned = *t;
    int64_t first, last;
    if (!plan_window(&planned, min_key, max_key, &first, &last))
        return 0;
    int64_t size = last - first + 1;
    if (t->size <= 0) {
        if (size > dest_cells)
            return 0;
        memset(dest, 0, (size_t)size * sizeof(double));
        planned.bins = dest;
        planned.offset = first;
        planned.size = size;
    } else if (first != t->offset || last != t->offset + t->size - 1) {
        if (size > dest_cells)
            return 0;
        move_window(&planned, dest, first, last);
    } else if (mode == MOVE) {
        return 0;
    }
    *t = planned;
    add_window(t, source, source_offset, source_size, count);
    return 1;
}

/* The target of pair i: its bins as (address, cell count) in targets, the
 * rest from its pair row; positive cells and flags counted from zero. */
static Window pair_target(const int64_t *targets, const int64_t *row, int64_t i)
{
    Window t;
    t.bins = (double *)(intptr_t)targets[2 * i];
    t.size = targets[2 * i + 1];
    t.capacity = t.size;
    t.offset = row[MW_OFFSET];
    t.kind = row[MW_KIND];
    t.limit = row[MW_LIMIT];
    t.positive = 0;
    t.collapsed = 0;
    t.count = 1.0; /* the caller passes only targets that hold weight */
    return t;
}

/* Merge n pairs in order; targets holds each pair's target bins as
 * (address, cell count) and sources the address of each source buffer.  A
 * pair whose target window stays adds its source window into the target's
 * bins in place and sets out[i] to the number of bins that went from zero
 * to positive; any other pair is left untouched with out[i] = -1.  Each
 * window is read when its pair is merged.  The caller passes only pairs
 * whose target holds weight and whose source is not empty, and updates the
 * stores' counts.  Returns the number of pairs merged. */
int64_t repro_merge_windows(int64_t n, const int64_t *targets, const int64_t *pairs,
                            const int64_t *sources, int64_t *out)
{
    int64_t accepted = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *row = pairs + i * MW_COLS;
        Window t = pair_target(targets, row, i);
        const double *source =
            (const double *)(intptr_t)sources[row[MW_SOURCE_BUFFER]] + row[MW_SOURCE_START];
        out[i] = -1;
        if (merge_window(&t, source, row[MW_SOURCE_OFFSET], row[MW_SOURCE_SIZE], 0.0, STAY,
                         NULL, 0)) {
            out[i] = t.positive;
            accepted++;
        }
    }
    return accepted;
}

/* Move columns: each pair's first cell in `arena` and the cells it may use. */
enum { MV_ARENA_START, MV_ARENA_CELLS, MV_COLS };

/* Output columns: the moved window's first key and size (-1: left to
 * Store.merge), its positive cells, and whether the store collapsed. */
enum { MO_FIRST, MO_SIZE, MO_POSITIVE, MO_COLLAPSED, MO_COLS };

/* Store.merge for pairs whose target window must move (the pairs
 * repro_merge_windows declines), with pairs in its column layout and
 * targets and sources as there.  Each pair's new window is built in
 * arena[start:start + cells], the old bins left as they are.  out gets the
 * window's first key and size, its positive cells (for a plain dense
 * store, the cells the merge made positive) and the collapsed flag, or size
 * -1 for a pair left to Store.merge.  Returns the number of pairs moved. */
int64_t repro_move_windows(int64_t n, const int64_t *targets, const int64_t *pairs,
                           const int64_t *sources, const int64_t *moves, double *arena,
                           int64_t *out)
{
    int64_t moved = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *row = pairs + i * MW_COLS;
        Window t = pair_target(targets, row, i);
        const double *source =
            (const double *)(intptr_t)sources[row[MW_SOURCE_BUFFER]] + row[MW_SOURCE_START];
        int64_t *result = out + i * MO_COLS;
        result[MO_SIZE] = -1;
        if (t.size <= 0)
            continue;
        if (!merge_window(&t, source, row[MW_SOURCE_OFFSET], row[MW_SOURCE_SIZE], 0.0, MOVE,
                          arena + moves[i * MV_COLS + MV_ARENA_START],
                          moves[i * MV_COLS + MV_ARENA_CELLS]))
            continue;
        result[MO_FIRST] = t.offset;
        result[MO_SIZE] = t.size;
        result[MO_POSITIVE] = t.positive;
        result[MO_COLLAPSED] = t.collapsed;
        moved++;
    }
    return moved;
}

/* Row columns of a store of a bucket row (repro.service.buckets): key
 * offset, kind and bin limit (a plain store's chunk size), first cell and
 * cells in the bucket's buffer, positive cells, collapsed flag and chunk
 * size.  Source columns: the source window's key offset, first cell in
 * `source_cells` and size. */
enum { RC_OFFSET, RC_KIND, RC_LIMIT, RC_FIRST, RC_SIZE, RC_POSITIVE, RC_COLLAPSED, RC_COLS };
enum { RS_OFFSET, RS_FIRST, RS_SIZE, RS_COLS };

/* Store.merge of n source windows into bucket rows, as repro_merge_windows
 * and then repro_move_windows would merge them: source i goes into store
 * signs[i] of row rows[i] (columns at `columns`, RC_COLS-wide plus one
 * chunk column per store, two stores per row; the store's count at
 * counts[row * count_stride + count_column + sign]).  A window that stays
 * takes the source in place in `cells`; one that moves is built in
 * `scratch` and appended at the buffer's tail (tail[0] cells are in use of
 * `capacity`; the old window's cells are added to the dead ones, tail[1]).
 * The row's columns and count are updated as Store.merge leaves the store.
 * left[i] is 0 for a merged pair, 1 for one left to Store.merge (a target
 * without weight or cells, a pair the passes decline, or a window past the
 * scratch), and minus the cells its moved window needs for one that found
 * no room at the tail (nothing changed; the caller makes room and merges
 * it again).  Returns the number of pairs merged. */
/* Store.merge of the source window at `source` (from key source_offset,
 * source_size cells, holding `total`) into the bucket store whose columns
 * are `col` and whose count is *count, as repro_merge_rows describes.
 * Returns 0 when merged, 1 for a pair left to Store.merge, or minus the
 * cells a moved window needs that found no room at the tail. */
static int64_t merge_row(int64_t *col, double *count, const double *source, int64_t source_offset,
                         int64_t source_size, double total, double *cells, int64_t capacity,
                         int64_t *tail, double *scratch, int64_t scratch_cells)
{
    if (!(*count > 0.0) || col[RC_SIZE] <= 0)
        return 1; /* Store.merge re-anchors an emptied store */
    Window t;
    t.bins = cells + col[RC_FIRST];
    t.size = t.capacity = col[RC_SIZE];
    t.offset = col[RC_OFFSET];
    t.kind = col[RC_KIND];
    t.limit = col[RC_LIMIT];
    t.positive = 0;
    t.collapsed = 0;
    t.count = 1.0;
    if (merge_window(&t, source, source_offset, source_size, 0.0, STAY, NULL, 0)) {
        col[RC_POSITIVE] += t.positive;
    } else {
        Window moved = t;
        if (!merge_window(&moved, source, source_offset, source_size, 0.0, MOVE, scratch,
                          scratch_cells))
            return 1;
        if (tail[0] + moved.size > capacity)
            return -moved.size;
        memcpy(cells + tail[0], scratch, (size_t)moved.size * sizeof(double));
        tail[1] += col[RC_SIZE];
        col[RC_FIRST] = tail[0];
        tail[0] += moved.size;
        col[RC_OFFSET] = moved.offset;
        col[RC_SIZE] = moved.size;
        /* A moved collapsing store counts its positive cells anew. */
        col[RC_POSITIVE] = t.kind == MERGE_DENSE ? col[RC_POSITIVE] + moved.positive
                                                 : moved.positive;
        if (moved.collapsed)
            col[RC_COLLAPSED] = 1;
    }
    *count += total;
    return 0;
}

int64_t repro_merge_rows(int64_t n, const int64_t *rows, const int64_t *signs,
                         int64_t *columns, double *counts, int64_t count_stride,
                         int64_t count_column, double *cells, int64_t capacity, int64_t *tail,
                         const int64_t *sources, const double *totals,
                         const double *source_cells, double *scratch, int64_t scratch_cells,
                         int64_t *left)
{
    int64_t merged = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *src = sources + i * RS_COLS;
        left[i] = merge_row(columns + (rows[i] * 2 + signs[i]) * (RC_COLS + 1),
                            counts + rows[i] * count_stride + count_column + signs[i],
                            source_cells + src[RS_FIRST], src[RS_OFFSET], src[RS_SIZE],
                            totals[i], cells, capacity, tail, scratch, scratch_cells);
        merged += left[i] == 0;
    }
    return merged;
}

/* Row scalar columns, as repro.service.buckets keeps them, and the decoded
 * sketch header columns of a frame entry (FrameColumns.floats). */
enum { RF_COUNT, RF_ZERO, RF_SUM, RF_MIN, RF_MAX, RF_STORE_COUNT };
enum { DF_ZERO = 3, DF_COUNT, DF_SUM, DF_MIN, DF_MAX, DF_COLS };

/* Fold n decoded frame entries (entries[i] indexes a chunk's `summaries`,
 * DF_COLS per entry, and its two store rows in `stores`, DE_COLS each,
 * positive first, with their `totals`; windows in `source_cells`) into
 * bucket rows rows[i], as BaseDDSketch.merge_checked_pairs folds a decoded
 * entry: an entry whose count is <= 0 changes nothing; otherwise the row's
 * scalars take the entry's (sums added, min and max by strict comparison)
 * and each store holding weight merges as repro_merge_rows merges it, its
 * result in status[2 * i + sign] (0 for a store without weight).  The row
 * floats are `float_stride` apart, the store counts from RF_STORE_COUNT.
 * Returns the number of entries taken. */
int64_t repro_merge_entries(int64_t n, const int64_t *entries, const int64_t *rows,
                            int64_t *columns, double *floats, int64_t float_stride,
                            double *cells, int64_t capacity, int64_t *tail,
                            const double *summaries, const int64_t *stores,
                            const double *totals, const double *source_cells, double *scratch,
                            int64_t scratch_cells, int64_t *status)
{
    int64_t taken = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *summary = summaries + entries[i] * DF_COLS;
        double *row = floats + rows[i] * float_stride;
        status[2 * i] = status[2 * i + 1] = 0;
        if (summary[DF_COUNT] <= 0.0)
            continue; /* merge_checked_pairs skips the entry */
        row[RF_ZERO] += summary[DF_ZERO];
        row[RF_COUNT] += summary[DF_COUNT];
        row[RF_SUM] += summary[DF_SUM];
        if (summary[DF_MIN] < row[RF_MIN])
            row[RF_MIN] = summary[DF_MIN];
        if (summary[DF_MAX] > row[RF_MAX])
            row[RF_MAX] = summary[DF_MAX];
        for (int64_t sign = 0; sign < 2; sign++) {
            int64_t store = 2 * entries[i] + sign;
            const int64_t *col = stores + store * DE_COLS;
            if (!(totals[store] > 0.0))
                continue; /* a store without weight merges nothing */
            status[2 * i + sign] = merge_row(
                columns + (rows[i] * 2 + sign) * (RC_COLS + 1),
                row + RF_STORE_COUNT + sign, source_cells + col[DE_CELL_START], col[DE_LO],
                col[DE_SIZE], totals[store], cells, capacity, tail, scratch, scratch_cells);
        }
        taken++;
    }
    return taken;
}

/* Fold columns: one row per window (its key offset, size and address) and
 * one per group, for the store the group starts from (its kind, bin limit
 * or a plain dense store's chunk size, positive cells and collapse flag)
 * and whether the group's result is merged into the total. */
enum { FW_OFFSET, FW_SIZE, FW_ADDRESS, FW_COLS };
enum { FH_KIND, FH_LIMIT, FH_POSITIVE, FH_COLLAPSED, FH_MERGED, FH_COLS };

/* The store a group starts from, copied into `cells`; 0 when it does not
 * fit there. */
static int copy_window(Window *t, const int64_t *row, const int64_t *head, double count,
                       double *cells, int64_t capacity)
{
    t->bins = cells;
    t->capacity = capacity;
    t->offset = row[FW_OFFSET];
    t->size = row[FW_SIZE];
    t->kind = head[FH_KIND];
    t->limit = head[FH_LIMIT];
    t->positive = head[FH_POSITIVE];
    t->collapsed = head[FH_COLLAPSED];
    t->count = count;
    if (t->size < 0 || t->size > capacity)
        return 0;
    if (t->size > 0)
        memcpy(cells, (const double *)(intptr_t)row[FW_ADDRESS], (size_t)t->size * sizeof(double));
    return 1;
}

/* Store.merge of a window into t: nothing where the window holds no weight. */
static int fold_window(Window *t, const int64_t *row, double count)
{
    if (!(count > 0.0))
        return 1;
    return merge_window(t, (const double *)(intptr_t)row[FW_ADDRESS], row[FW_OFFSET],
                        row[FW_SIZE], count, FOLD, t->bins, t->capacity);
}

/* Fold ngroups groups of windows into one, as the copy-first loop does:
 * group g holds window rows [ends[g - 1], ends[g]) (from 0 for g = 0;
 * counts holds each window's store count), is folded in order from a copy
 * of its first window, and is merged into the total as soon as it is done
 * where its head row says so.  The total is group 0's result and lives in
 * total_cells; later groups are folded in group_cells, except that a group
 * of one window merges straight from it.  Windows are read in place.  out
 * gets the total's first key, size, positive cells and collapse flag, and
 * count[0] its count.  Returns 0, or -1 for a fold left to the loop (a
 * window without a used bin where its count says it holds weight, keys
 * past +-2**50, a window outgrowing its cells). */
int64_t repro_fold_windows(int64_t ngroups, const int64_t *ends, const int64_t *heads,
                           const int64_t *windows, const double *counts, double *total_cells,
                           int64_t total_capacity, double *group_cells, int64_t group_capacity,
                           int64_t *out, double *count)
{
    Window total, group;
    int64_t begin = 0;
    for (int64_t g = 0; g < ngroups; g++) {
        const int64_t *head = heads + g * FH_COLS;
        int64_t end = ends[g];
        if (end <= begin)
            return -1;
        if (g == 0) {
            if (!copy_window(&total, windows, head, counts[0], total_cells, total_capacity))
                return -1;
            for (int64_t i = 1; i < end; i++)
                if (!fold_window(&total, windows + i * FW_COLS, counts[i]))
                    return -1;
        } else if (end - begin == 1) {
            if (head[FH_MERGED] && !fold_window(&total, windows + begin * FW_COLS, counts[begin]))
                return -1;
        } else {
            if (!copy_window(&group, windows + begin * FW_COLS, head, counts[begin], group_cells,
                             group_capacity))
                return -1;
            for (int64_t i = begin + 1; i < end; i++)
                if (!fold_window(&group, windows + i * FW_COLS, counts[i]))
                    return -1;
            if (head[FH_MERGED] && group.count > 0.0
                && !merge_window(&total, group.bins, group.offset, group.size, group.count,
                                 FOLD, total.bins, total.capacity))
                return -1;
        }
        begin = end;
    }
    out[0] = total.offset;
    out[1] = total.size;
    out[2] = total.positive;
    out[3] = total.collapsed;
    count[0] = total.count;
    return 0;
}

/* The scalars of BaseDDSketch.fold's copy-first loop, in its order: group g
 * holds rows [ends[g - 1], ends[g]) of `scalars` (from 0 for g = 0), each
 * row's first five doubles, `stride` apart, being a sketch's count, zero
 * count, sum, min and max.  Each group starts from its first row; a later
 * row adds in only where its count is not <= 0.  Group 0's result is the
 * total, and a later group's is added in where its count is > 0.  take[i]
 * says whether row i's stores take part in the fold (group heads always),
 * merged[g] whether group g's count is > 0, and total gets the folded
 * count, zero count, sum, min and max. */
void repro_fold_scalars(int64_t ngroups, const int64_t *ends, const double *scalars,
                        int64_t stride, int8_t *take, int8_t *merged, double *total)
{
    int64_t begin = 0;
    for (int64_t g = 0; g < ngroups; g++) {
        const double *head = scalars + begin * stride;
        double count = head[0], zero = head[1], sum = head[2], low = head[3], high = head[4];
        take[begin] = 1;
        for (int64_t i = begin + 1; i < ends[g]; i++) {
            const double *row = scalars + i * stride;
            take[i] = !(row[0] <= 0.0);
            if (!take[i])
                continue;
            count += row[0];
            zero += row[1];
            sum += row[2];
            if (row[3] < low)
                low = row[3];
            if (row[4] > high)
                high = row[4];
        }
        if (g == 0) {
            total[0] = count;
            total[1] = zero;
            total[2] = sum;
            total[3] = low;
            total[4] = high;
        } else if (count > 0.0) {
            total[0] += count;
            total[1] += zero;
            total[2] += sum;
            if (low < total[3])
                total[3] = low;
            if (high > total[4])
                total[4] = high;
        }
        merged[g] = count > 0.0;
        begin = ends[g];
    }
}
