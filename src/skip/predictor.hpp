/**
 * @file
 * The unaffected-neuron predictor (Section IV-A, Eq. 5): combines the
 * pre-inference zero-neuron index, the per-neuron dropped-nw-input
 * counts and the per-kernel thresholds into a predicted-unaffected
 * bitmap — exactly the central predictor's function (prediction bit =
 * (N_d < α) AND zero-index bit).
 */

#ifndef FASTBCNN_SKIP_PREDICTOR_HPP
#define FASTBCNN_SKIP_PREDICTOR_HPP

#include "nw_counter.hpp"
#include "thresholds.hpp"

namespace fastbcnn {

/** Zero-neuron indices of the pre-inference, keyed by conv node. */
using ZeroMaps = std::map<NodeId, BitVolume>;

/**
 * Run the non-dropout pre-inference and record, for every conv block,
 * which post-ReLU neurons are zero (the "location[L]" of Algorithm 1
 * line 3).
 *
 * @param topo   analysed BCNN
 * @param input  the input image
 * @param output when non-null, receives the pre-inference network
 *               output (the same forward pass, not a second one)
 * @return per-conv-block zero maps of shape (M, R, C)
 */
ZeroMaps computeZeroMaps(const BcnnTopology &topo, const Tensor &input,
                         Tensor *output = nullptr);

/**
 * Produce the prediction bitmap for one conv block.
 *
 * @param zero_map   the block's pre-inference zero map (M, R, C)
 * @param counts     dropped-nw-input counts for this sample (M, R, C)
 * @param thresholds per-kernel α values of this conv
 * @param conv       the conv node id (threshold lookup key)
 * @return bit (m, r, c) set iff the neuron is predicted unaffected
 */
BitVolume predictUnaffected(const BitVolume &zero_map,
                            const CountVolume &counts,
                            const ThresholdSet &thresholds, NodeId conv);

/**
 * Ground truth for prediction quality: the bitmap of *actually*
 * unaffected neurons, i.e. zero in the pre-inference and still zero
 * (post-ReLU) in the dropout sample's true conv output.
 *
 * @param zero_map    the block's pre-inference zero map
 * @param true_output the sample's exact conv output (pre-ReLU)
 */
BitVolume actualUnaffected(const BitVolume &zero_map,
                           const Tensor &true_output);

/**
 * Ground truth for the audit layer: the bitmap of mispredicted
 * neurons, i.e. predicted unaffected (forced to zero by the skip
 * engine) but actually positive (post-ReLU) in the sample's true conv
 * output.  The shadow audit estimates exactly this set's density by
 * re-computing a sampled fraction of @p predicted; tests compare the
 * estimate against this full enumeration.
 *
 * @param predicted   the block's prediction bitmap (predictUnaffected)
 * @param true_output the sample's exact conv output (pre-ReLU)
 */
BitVolume mispredicted(const BitVolume &predicted,
                       const Tensor &true_output);

} // namespace fastbcnn

#endif // FASTBCNN_SKIP_PREDICTOR_HPP
