/**
 * @file
 * The prediction-mode forward pass ("PredictInference" of Algorithm 1,
 * and the functional semantics of the Fast-BCNN accelerator): every
 * neuron predicted unaffected reads zero, everything else is computed
 * exactly.  On the CPU each in-scope conv runs densely and the
 * predicted neurons are zeroed afterwards, so the result equals the
 * MC-dropout sample with those units also zeroed; the work the skip
 * engine would save is modelled by the cycle simulator, not here.
 */

#ifndef FASTBCNN_SKIP_PREDICTIVE_INFERENCE_HPP
#define FASTBCNN_SKIP_PREDICTIVE_INFERENCE_HPP

#include "predictor.hpp"

namespace fastbcnn {

/** Options for a predictive forward pass. */
struct PredictiveOptions {
    /**
     * Apply prediction only to blocks with index <= up_to_block
     * (Algorithm 1 runs prediction mode "from the first layer to the
     * current layer"); later blocks execute normally.
     */
    std::size_t upToBlock = static_cast<std::size_t>(-1);
    /**
     * Record the output of every node (used by the shadow audit and
     * evaluatePrediction).  A conv output holds zero at its predicted
     * neurons and the dense value everywhere else, dropped neurons
     * included; the block's Dropout output zeroes those.
     */
    bool captureNodeOutputs = false;
};

/** Outcome of a predictive forward pass. */
struct PredictiveResult {
    Tensor output;                         ///< final network output
    std::map<NodeId, BitVolume> predicted; ///< per-conv predicted maps
    std::vector<Tensor> nodeOutputs;       ///< when captureNodeOutputs
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
 * @param opts       scope / capture options
 */
PredictiveResult predictiveForward(const BcnnTopology &topo,
                                   const IndicatorSet &indicators,
                                   const ZeroMaps &zero_maps,
                                   const ThresholdSet &thresholds,
                                   const Tensor &input,
                                   const MaskSet &masks,
                                   const PredictiveOptions &opts = {});

} // namespace fastbcnn

#endif // FASTBCNN_SKIP_PREDICTIVE_INFERENCE_HPP
