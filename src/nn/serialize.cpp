#include "serialize.hpp"

#include <algorithm>
#include <ostream>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "conv2d.hpp"
#include "dense.hpp"

namespace fastbcnn {

namespace {

/** Parameter tensors of a layer, or nullptrs when it has none. */
struct ParamRefs {
    Tensor *weights = nullptr;
    Tensor *bias = nullptr;
};

ParamRefs
paramsOf(Layer &layer)
{
    switch (layer.kind()) {
      case LayerKind::Conv2d: {
        auto &conv = static_cast<Conv2d &>(layer);
        return {&conv.weights(), &conv.bias()};
      }
      case LayerKind::Linear: {
        auto &fc = static_cast<Linear &>(layer);
        return {&fc.weights(), &fc.bias()};
      }
      default:
        return {};
    }
}

} // namespace

CheckpointImage
checkpointImageOf(const Network &net)
{
    CheckpointImage image;
    image.modelName = net.name();
    for (NodeId id = 0; id < net.size(); ++id) {
        // paramsOf needs mutable access; snapshotting only reads.
        ParamRefs p = paramsOf(const_cast<Layer &>(net.layer(id)));
        if (!p.weights)
            continue;
        CheckpointRecord rec;
        rec.name = net.layer(id).name();
        rec.kind = net.layer(id).kind();
        rec.weights.assign(p.weights->data().begin(),
                           p.weights->data().end());
        rec.bias.assign(p.bias->data().begin(), p.bias->data().end());
        image.records.push_back(std::move(rec));
    }
    return image;
}

Status
tryCommitCheckpointImage(Network &net, const CheckpointImage &image)
{
    // Stage 1: resolve and validate every record without touching the
    // network, so any error leaves the weights exactly as they were.
    std::vector<NodeId> nodes;
    nodes.reserve(image.records.size());
    for (const CheckpointRecord &rec : image.records) {
        const std::optional<NodeId> id = net.tryFindNode(rec.name);
        if (!id) {
            return errorf(ErrorCode::NotFound,
                          "network '%s' has no layer named '%.64s'",
                          net.name().c_str(), rec.name.c_str());
        }
        ParamRefs p = paramsOf(net.layer(*id));
        if (!p.weights) {
            return errorf(ErrorCode::Mismatch,
                          "layer '%.64s' in weight file has no "
                          "parameters in the network",
                          rec.name.c_str());
        }
        if (p.weights->numel() != rec.weights.size() ||
            p.bias->numel() != rec.bias.size()) {
            return errorf(ErrorCode::Mismatch,
                          "layer '%.64s': checkpoint holds %zu/%zu "
                          "values but the network needs %zu/%zu",
                          rec.name.c_str(), rec.weights.size(),
                          rec.bias.size(), p.weights->numel(),
                          p.bias->numel());
        }
        nodes.push_back(*id);
    }

    // Stage 2: commit.  Counts were validated above, so this cannot
    // fail half-way.
    for (std::size_t i = 0; i < image.records.size(); ++i) {
        const CheckpointRecord &rec = image.records[i];
        ParamRefs p = paramsOf(net.layer(nodes[i]));
        std::copy(rec.weights.begin(), rec.weights.end(),
                  p.weights->data().begin());
        std::copy(rec.bias.begin(), rec.bias.end(),
                  p.bias->data().begin());
    }
    return Status::ok();
}

void
printSummary(const Network &net, std::ostream &os)
{
    Table t({"#", "layer", "kind", "output shape", "params"});
    std::uint64_t total_params = 0;
    for (NodeId id = 0; id < net.size(); ++id) {
        ParamRefs p = paramsOf(const_cast<Layer &>(net.layer(id)));
        const std::uint64_t params =
            p.weights ? p.weights->numel() + p.bias->numel() : 0;
        total_params += params;
        t.addRow({format("%zu", id), net.layer(id).name(),
                  layerKindName(net.layer(id).kind()),
                  net.shapeOf(id).toString(),
                  params == 0 ? "-" : format("%llu",
                                             static_cast<unsigned long long>(params))});
    }
    t.print(os);
    os << net.name() << ": " << total_params << " parameters, "
       << net.totalMacs() << " MACs per dense inference\n";
}

} // namespace fastbcnn
