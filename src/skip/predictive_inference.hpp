/**
 * @file
 * The prediction-mode forward pass ("PredictInference" of Algorithm 1,
 * and the functional semantics of the Fast-BCNN accelerator): every
 * neuron predicted unaffected reads zero, everything else is computed
 * exactly.  On the CPU each conv runs densely and the predicted
 * neurons are zeroed afterwards, so the result equals the MC-dropout
 * sample with those units also zeroed; the work the skip engine would
 * save is modelled by the cycle simulator, not here.
 *
 * Because the dense conv has just computed the value each predicted
 * neuron would have had, the pass also records which of them were
 * mispredicted (positive before the zeroing); the shadow audit
 * (auditPredictedNeurons) samples that record instead of recomputing.
 *
 * Callers pass the thresholds to use: the threshold optimizer and
 * buildTrace() a fixed set, and skip mode (tryRunGuardedPredictive)
 * its SkipGuard's effective set.
 */

#ifndef FASTBCNN_SKIP_PREDICTIVE_INFERENCE_HPP
#define FASTBCNN_SKIP_PREDICTIVE_INFERENCE_HPP

#include "predictor.hpp"

namespace fastbcnn {

/** Outcome of a predictive forward pass. */
struct PredictiveResult {
    Tensor output;                         ///< final network output
    std::map<NodeId, BitVolume> predicted; ///< per-conv predicted maps
    /**
     * Per-conv mispredicted maps: the predicted neurons whose dense
     * conv value was positive (mispredicted(), read before zeroing).
     */
    std::map<NodeId, BitVolume> mispredicted;
    std::uint64_t predictedNeurons = 0;    ///< total predicted count
};

/**
 * Execute one sample inference in prediction mode.
 *
 * @param topo       analysed BCNN
 * @param indicators per-layer weight-sign indicators
 * @param zero_maps  pre-inference zero maps (computeZeroMaps)
 * @param thresholds per-kernel α values
 * @param input      the input image
 * @param masks      this sample's recorded dropout masks
 * @param hooks      optional run hooks: every node's output passes
 *                   through their mutateActivation() (activation
 *                   faults); masks come from @p masks alone.  A conv's
 *                   output is passed before its predicted neurons are
 *                   zeroed, so a fault on a skipped neuron is
 *                   overwritten, as the skip engine never computes it.
 */
PredictiveResult predictiveForward(const BcnnTopology &topo,
                                   const IndicatorSet &indicators,
                                   const ZeroMaps &zero_maps,
                                   const ThresholdSet &thresholds,
                                   const Tensor &input,
                                   const MaskSet &masks,
                                   ForwardHooks *hooks = nullptr);

} // namespace fastbcnn

#endif // FASTBCNN_SKIP_PREDICTIVE_INFERENCE_HPP
