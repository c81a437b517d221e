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

/* Encode n (zig-zag varint delta, little-endian float64 count) pairs into
 * out (caller allocates >= n * 18 bytes); returns the bytes written.
 * Byte-identical to encode_zigzag/encode_float in serialization/encoding.py. */
int64_t repro_encode_pairs(const int64_t *deltas, const double *counts,
                           int64_t n, uint8_t *out)
{
    int64_t pos = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t v = deltas[i];
        uint64_t z = ((uint64_t)v << 1) ^ (uint64_t)(v >> 63);
        for (;;) {
            uint8_t byte = (uint8_t)(z & 0x7F);
            z >>= 7;
            if (z) {
                out[pos++] = (uint8_t)(byte | 0x80);
            } else {
                out[pos++] = byte;
                break;
            }
        }
        memcpy(out + pos, &counts[i], 8);
        pos += 8;
    }
    return pos;
}

/* Decode n pairs starting at payload[pos]; fills deltas/counts and returns
 * the next offset, or a negative status on any anomaly (truncation,
 * over-long varint, value outside uint64/int64) - the Python wrapper then
 * falls back to the pure loop, which reproduces the exact historical
 * exception (DeserializationError or OverflowError). */
int64_t repro_decode_pairs(const uint8_t *payload, int64_t len, int64_t pos,
                           int64_t n, int64_t *deltas, double *counts)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t result = 0;
        int shift = 0;
        for (;;) {
            if (pos >= len)
                return -1; /* truncated varint */
            uint8_t byte = payload[pos++];
            uint64_t low = byte & 0x7F;
            if (shift < 64) {
                if (shift > 57 && (low >> (64 - shift)) != 0)
                    return -2; /* exceeds uint64 */
                result |= low << shift;
            } else if (low != 0) {
                return -2; /* exceeds uint64 */
            }
            if (!(byte & 0x80))
                break;
            shift += 7;
            if (shift > 70)
                return -3; /* varint too long */
        }
        deltas[i] = (int64_t)(result >> 1) ^ -((int64_t)(result & 1));
        if (pos + 8 > len)
            return -1; /* truncated float */
        memcpy(&counts[i], payload + pos, 8);
        pos += 8;
    }
    return pos;
}
