/**
 * @file
 * Scalar dispatch table: thin table over the shared reference kernels
 * in kernels_internal.hpp.  Always compiled, always available — this
 * is the semantics every vector level must reproduce bit-for-bit.
 */

#include "simd/kernels_internal.hpp"

namespace fastbcnn::simd::detail {

const SimdKernels &
scalarTable()
{
    static const SimdKernels table = {
        &scalarConvForward,       &scalarDenseForward,
        &scalarPoolMax,           &scalarPoolAvg,
        &scalarRelu,              &scalarPopcountWords,
        &scalarPopcountBits,      &scalarAndPopcountWords,
        &scalarCountNwInputs,     &scalarQuantConvForward,
        &scalarQuantDenseAccum,   &scalarQuantRelu,
        &scalarQuantPoolMax,
    };
    return table;
}

} // namespace fastbcnn::simd::detail
