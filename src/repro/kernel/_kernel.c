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
/* Bulk store merge: many (target, source) dense-store pairs in one call.   */
/* Store.merge (store/dense.py, store/collapsing.py) is the oracle: a pair  */
/* is accepted only where that merge would leave the target's window and   */
/* collapse flag as they are, so the merge is one slice addition.          */

#define MERGE_DENSE 0
#define MERGE_LOWEST 1
#define MERGE_HIGHEST 2
#define KEY_LIMIT ((int64_t)1 << 61)

/* Pair columns: the target's key offset, kind and bin limit; the source
 * window's key offset, buffer (an index into `sources`), first cell in that
 * buffer and size. */
enum {
    MW_OFFSET, MW_KIND, MW_LIMIT, MW_SOURCE_OFFSET, MW_SOURCE_BUFFER, MW_SOURCE_START,
    MW_SOURCE_SIZE, MW_COLS
};

static int any_positive(const double *bins, int64_t size)
{
    for (int64_t j = 0; j < size; j++)
        if (bins[j] > 0.0)
            return 1;
    return 0;
}

/* Whether _extend_range(min_key, max_key) would keep the target's window
 * and collapse flag; lo and hi are the source's used keys as target indices.
 * The collapsing stores re-anchor on the target's used edge bin, so an
 * unused edge bin moves the window unless the source fills it. */
static int window_stays(const double *bins, int64_t size, int64_t kind, int64_t limit,
                        int64_t lo, int64_t hi)
{
    if (size <= 0 || lo < 0 || hi >= size)
        return 0;
    if (kind == MERGE_DENSE)
        return 1;
    if (size > limit)
        return 0;
    if (kind == MERGE_LOWEST)
        return bins[size - 1] > 0.0 || (hi == size - 1 && any_positive(bins, size));
    return bins[0] > 0.0 || (lo == 0 && any_positive(bins, size));
}

/* Merge n pairs in order; targets holds each pair's target bins as
 * (address, cell count) and sources the address of each source buffer.  An
 * accepted pair adds its source window into the target's bins in place (the
 * overlap, as _merge_dense slices it) and sets out[i] to the number of bins
 * that went from zero to positive; a declined pair is left untouched with
 * out[i] = -1.  Each window is read when its pair is merged.  The caller
 * passes only pairs whose target holds weight and whose source is not
 * empty, and updates the stores' counts.  Returns the number of accepted
 * pairs. */
int64_t repro_merge_windows(int64_t n, const int64_t *targets, const int64_t *pairs,
                            const int64_t *sources, int64_t *out)
{
    int64_t accepted = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *row = pairs + i * MW_COLS;
        double *bins = (double *)(intptr_t)targets[2 * i];
        int64_t size = targets[2 * i + 1];
        const double *source =
            (const double *)(intptr_t)sources[row[MW_SOURCE_BUFFER]] + row[MW_SOURCE_START];
        int64_t source_size = row[MW_SOURCE_SIZE];
        out[i] = -1;
        /* The source's used cells, as min_key / max_key find them. */
        int64_t first = 0, last = source_size - 1;
        while (first < source_size && !(source[first] > 0.0))
            first++;
        if (first == source_size)
            continue;
        while (!(source[last] > 0.0))
            last--;
        /* Offsets beyond +-2**61 (no mapping makes them) could overflow below. */
        if (row[MW_OFFSET] < -KEY_LIMIT || row[MW_OFFSET] > KEY_LIMIT
            || row[MW_SOURCE_OFFSET] < -KEY_LIMIT || row[MW_SOURCE_OFFSET] > KEY_LIMIT)
            continue;
        int64_t start = row[MW_SOURCE_OFFSET] - row[MW_OFFSET];
        if (!window_stays(bins, size, row[MW_KIND], row[MW_LIMIT], start + first, start + last))
            continue;
        int64_t low = start > 0 ? start : 0;
        int64_t high = start + source_size < size ? start + source_size : size;
        int64_t positive = 0;
        for (int64_t j = low; j < high; j++) {
            double cell = source[j - start];
            positive += bins[j] == 0.0 && cell > 0.0;
            bins[j] += cell;
        }
        out[i] = positive;
        accepted++;
    }
    return accepted;
}

/* float(numpy.sum(a[:n])) of a contiguous slice. */
static double slice_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* Keys beyond +-2**50 (no mapping makes them) leave the window arithmetic
 * below to Store.merge, as do chunk divisions Python would round apart. */
#define MOVE_KEY_LIMIT ((int64_t)1 << 50)

/* Move columns: each pair's first cell in `arena` and the cells it may use. */
enum { MV_ARENA_START, MV_ARENA_CELLS, MV_COLS };

/* Output columns: the moved window's first key and size (-1: left to
 * Store.merge), its positive cells, and whether the store collapsed. */
enum { MO_FIRST, MO_SIZE, MO_POSITIVE, MO_COLLAPSED, MO_COLS };

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

/* Store.merge for pairs whose target window must move (the pairs
 * repro_merge_windows declines), with pairs in its column layout and
 * targets and sources as there.  Each pair's new window is built in
 * arena[start:start + size]: the old bins moved as _extend_range and
 * _move_window move them (a plain store grows by whole chunks, its pair
 * row's limit column holding its chunk size; a collapsing store re-anchors
 * on its used edge bin and folds what falls outside into its boundary
 * bin), then the source window added as _merge_dense adds it, weight
 * outside the window folded onto the edge bins.  out gets the window's
 * first key and size, its positive cells and the collapsed flag, or size
 * -1 for a pair left to Store.merge.  Returns the number of pairs moved. */
int64_t repro_move_windows(int64_t n, const int64_t *targets, const int64_t *pairs,
                           const int64_t *sources, const int64_t *moves, double *arena,
                           int64_t *out)
{
    int64_t moved = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *row = pairs + i * MW_COLS;
        const double *old = (const double *)(intptr_t)targets[2 * i];
        int64_t old_size = targets[2 * i + 1];
        const double *source =
            (const double *)(intptr_t)sources[row[MW_SOURCE_BUFFER]] + row[MW_SOURCE_START];
        int64_t source_size = row[MW_SOURCE_SIZE];
        int64_t offset = row[MW_OFFSET], kind = row[MW_KIND], limit = row[MW_LIMIT];
        int64_t source_offset = row[MW_SOURCE_OFFSET];
        int64_t *result = out + i * MO_COLS;
        result[MO_SIZE] = -1;
        if (offset < -MOVE_KEY_LIMIT || offset > MOVE_KEY_LIMIT || source_offset < -MOVE_KEY_LIMIT
            || source_offset > MOVE_KEY_LIMIT || old_size <= 0 || limit <= 0)
            continue;
        int64_t first = used_edge(source, source_size, 0);
        if (first < 0)
            continue;
        int64_t min_key = source_offset + first;
        int64_t max_key = source_offset + used_edge(source, source_size, 1);
        int64_t window_first = offset, window_last = offset + old_size - 1;
        int64_t new_first, new_last, collapsed = 0, recount = 1;
        if (kind == MERGE_DENSE) {
            /* _extend_below, then _extend_above, by whole chunks. */
            new_first = window_first;
            new_last = window_last;
            if (min_key < new_first)
                new_first -= (int64_t)ceil((double)(new_first - min_key) / (double)limit) * limit;
            if (max_key > new_last)
                new_last += (int64_t)ceil((double)(max_key - new_last) / (double)limit) * limit;
            recount = 0;
        } else if (kind == MERGE_LOWEST) {
            int64_t top = used_edge(old, old_size, 1);
            if (top < 0 || old_size > limit)
                continue;
            new_last = offset + top > max_key ? offset + top : max_key;
            new_first = window_first < min_key ? window_first : min_key;
            if (new_last - new_first + 1 > limit)
                new_first = new_last - limit + 1;
            collapsed = new_first > min_key;
        } else if (kind == MERGE_HIGHEST) {
            int64_t bottom = used_edge(old, old_size, 0);
            if (bottom < 0 || old_size > limit)
                continue;
            new_first = offset + bottom < min_key ? offset + bottom : min_key;
            new_last = window_last > max_key ? window_last : max_key;
            if (new_last - new_first + 1 > limit)
                new_last = new_first + limit - 1;
            collapsed = new_last < max_key;
        } else {
            continue;
        }
        if (new_first == window_first && new_last == window_last)
            continue;
        int64_t size = new_last - new_first + 1;
        if (size > moves[i * MV_COLS + MV_ARENA_CELLS])
            continue;
        double *bins = arena + moves[i * MV_COLS + MV_ARENA_START];
        memset(bins, 0, (size_t)size * sizeof(double));
        /* _move_window: the overlap moves, the rest folds onto the
         * collapsing side (a plain store only grows, so nothing folds). */
        int64_t start = offset - new_first;
        int64_t low = start < 0 ? -start : 0;
        int64_t high = old_size < size - start ? old_size : size - start;
        double folded;
        if (low < high) {
            memcpy(bins + start + low, old + low, (size_t)(high - low) * sizeof(double));
            folded = slice_sum(old, low) + slice_sum(old + high, old_size - high);
        } else {
            folded = slice_sum(old, old_size);
        }
        if (folded > 0.0) {
            bins[kind == MERGE_HIGHEST ? size - 1 : 0] += folded;
            collapsed = 1;
        }
        int64_t positive = 0;
        if (recount)
            for (int64_t j = 0; j < size; j++)
                positive += bins[j] > 0.0;
        /* _merge_dense into the moved window. */
        start = source_offset - new_first;
        low = start > 0 ? start : 0;
        high = start + source_size < size ? start + source_size : size;
        for (int64_t j = low; j < high; j++) {
            double cell = source[j - start];
            positive += bins[j] == 0.0 && cell > 0.0;
            bins[j] += cell;
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
        result[MO_FIRST] = new_first;
        result[MO_SIZE] = size;
        result[MO_POSITIVE] = positive;
        result[MO_COLLAPSED] = collapsed;
        moved++;
    }
    return moved;
}
