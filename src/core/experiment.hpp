/**
 * @file
 * Shared experiment harness for the benches: prepares a (model,
 * dataset, thresholds) workload once and hands out cached traces so
 * every accelerator configuration is evaluated on identical inputs.
 */

#ifndef FASTBCNN_CORE_EXPERIMENT_HPP
#define FASTBCNN_CORE_EXPERIMENT_HPP

#include <memory>

#include "data/synthetic.hpp"
#include "engine.hpp"
#include "models/zoo.hpp"

namespace fastbcnn {

/** Everything needed to reproduce one experiment's workload. */
struct WorkloadConfig {
    ModelKind kind = ModelKind::LeNet5;
    /** Channel width; benches default to scaled nets (DESIGN.md §6.4). */
    double width = 1.0;
    double dropRate = 0.3;
    std::size_t samples = 50;       ///< T per MC inference
    double confidence = 0.68;       ///< p_cf for Algorithm 1
    std::size_t optimizerSamples = 6;
    std::size_t calibrationInputs = 1;
    std::size_t evalInputs = 1;
    std::uint64_t seed = 1;
    BrngKind brng = BrngKind::Lfsr;
    /**
     * Capture the functional Fast-BCNN outputs (needed for the
     * accuracy metrics; ~35 % slower to build).  Timing-only
     * experiments disable it.
     */
    bool captureFunctional = true;
};

/** Scalar metrics aggregated over a workload's evaluation inputs. */
struct AggregateMetrics {
    double cyclesPerSample = 0.0;
    double energyPerSampleNj = 0.0;
    double convEnergyFraction = 0.0;
    double predEnergyFraction = 0.0;
    double centralEnergyFraction = 0.0;
    double peIdleFraction = 0.0;
    double skipRate = 0.0;  ///< skipped / (skipped + computed)
};

/** Average the scalar metrics of per-input reports. */
AggregateMetrics aggregate(const std::vector<SimReport> &reports);

/**
 * A prepared workload: built model, calibrated thresholds and one
 * cached trace bundle per evaluation input.
 */
class Workload
{
  public:
    /** Build, calibrate and trace; this is the expensive step. */
    explicit Workload(const WorkloadConfig &cfg);

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** @return the workload configuration. */
    const WorkloadConfig &config() const { return cfg_; }

    /** @return the engine (network, topology, thresholds). */
    FastBcnnEngine &engine() { return *engine_; }

    /** @return cached trace bundles, one per evaluation input. */
    const std::vector<TraceBundle> &bundles() const { return bundles_; }

    /**
     * Fraction of evaluation inputs whose Fast-BCNN argmax differs
     * from the exact MC-dropout argmax — the accuracy-loss proxy
     * (upper bound on classification accuracy loss; DESIGN.md §2).
     */
    double argmaxDisagreement() const;

    /**
     * Fraction of evaluation inputs whose exact MC estimator flips
     * its own argmax between the two halves of its samples — the
     * noise floor against which argmaxDisagreement() must be read.
     */
    double noiseFloorDisagreement() const;

    /** Mean absolute difference of the averaged output vectors. */
    double meanOutputError() const;

    /** Census averaged across evaluation inputs. */
    std::vector<BlockCensus> census() const;

  private:
    WorkloadConfig cfg_;
    std::unique_ptr<FastBcnnEngine> engine_;
    std::vector<TraceBundle> bundles_;
};

/**
 * Paper-vs-measured row helper: "paper" column values come straight
 * from the publication, "ours" from the simulation.
 */
struct ComparisonRow {
    std::string experiment;
    std::string metric;
    std::string paper;
    std::string measured;
};

} // namespace fastbcnn

#endif // FASTBCNN_CORE_EXPERIMENT_HPP
