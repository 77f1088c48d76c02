#include "embed/skipgram.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace rl4oasd::embed {

using roadnet::EdgeId;

SkipGramTrainer::SkipGramTrainer(const roadnet::RoadNetwork* net,
                                 SkipGramConfig config)
    : net_(net), config_(config), rng_(config.seed) {
  const size_t n = net->NumEdges();
  in_.Resize(n, config_.dim);
  out_.Resize(n, config_.dim);
  aux_w_.Resize(3, config_.dim);
  grad_in_.resize(config_.dim);
  const float scale = 0.5f / static_cast<float>(config_.dim);
  for (size_t i = 0; i < in_.size(); ++i) {
    in_.data()[i] = static_cast<float>(rng_.Uniform(-scale, scale));
  }
  for (size_t i = 0; i < aux_w_.size(); ++i) {
    aux_w_.data()[i] = static_cast<float>(rng_.Uniform(-scale, scale));
  }
  unigram_.assign(n, 1.0);
}

std::vector<std::vector<EdgeId>> SkipGramTrainer::BuildCorpus(
    const traj::Dataset& dataset) {
  std::vector<std::vector<EdgeId>> corpus;
  corpus.reserve(dataset.size() +
                 net_->NumEdges() * config_.random_walks_per_edge);
  // Travel semantics: the trajectories themselves.
  for (const auto& lt : dataset.trajs()) {
    if (lt.traj.edges.size() >= 2) corpus.push_back(lt.traj.edges);
  }
  // Topology: random walks on the edge graph.
  for (int w = 0; w < config_.random_walks_per_edge; ++w) {
    for (EdgeId start = 0;
         start < static_cast<EdgeId>(net_->NumEdges()); ++start) {
      std::vector<EdgeId> walk{start};
      EdgeId cur = start;
      for (int s = 1; s < config_.walk_length; ++s) {
        const auto& next = net_->NextEdges(cur);
        if (next.empty()) break;
        cur = next[rng_.UniformInt(next.size())];
        walk.push_back(cur);
      }
      if (walk.size() >= 2) corpus.push_back(std::move(walk));
    }
  }
  // Unigram counts (smoothed to 0.75 power, word2vec-style).
  std::fill(unigram_.begin(), unigram_.end(), 0.0);
  for (const auto& seq : corpus) {
    for (EdgeId e : seq) unigram_[e] += 1.0;
  }
  for (double& u : unigram_) u = std::pow(u + 1.0, 0.75);
  return corpus;
}

void SkipGramTrainer::UpdatePair(EdgeId center, EdgeId context, double lr) {
  const size_t dim = config_.dim;
  float* v_in = in_.Row(center);
  float* grad_in = grad_in_.data();
  std::fill(grad_in_.begin(), grad_in_.end(), 0.0f);

  auto step = [&](EdgeId target, float label) {
    float* v_out = out_.Row(target);
    const float dot = nn::Dot(v_in, v_out, dim);
    const float p = nn::Sigmoid(dot);
    const float g = (p - label) * static_cast<float>(lr);
    for (size_t d = 0; d < dim; ++d) {
      grad_in[d] += g * v_out[d];
      v_out[d] -= g * v_in[d];
    }
  };

  step(context, 1.0f);
  for (int k = 0; k < config_.negatives; ++k) {
    // Negative sampling is the inner loop of the whole embed phase;
    // neg_sampler_ replays rng_.Categorical(unigram_) draw-for-draw in
    // O(1) expected time instead of two O(n) passes.
    EdgeId neg = static_cast<EdgeId>(neg_sampler_->Sample(&rng_));
    if (neg == context || neg == center) continue;
    step(neg, 0.0f);
  }
  for (size_t d = 0; d < dim; ++d) v_in[d] -= grad_in[d];
}

void SkipGramTrainer::UpdateAux(EdgeId center, double lr) {
  const size_t dim = config_.dim;
  float* v_in = in_.Row(center);
  float logits[3];
  nn::MatVec(aux_w_, v_in, logits);
  nn::SoftmaxInPlace(logits, 3);
  const int target = static_cast<int>(net_->edge(center).road_class);
  const float scale = static_cast<float>(lr * config_.aux_weight);
  for (int c = 0; c < 3; ++c) {
    const float g = (logits[c] - (c == target ? 1.0f : 0.0f)) * scale;
    float* w = aux_w_.Row(c);
    for (size_t d = 0; d < dim; ++d) {
      const float gin = g * w[d];
      w[d] -= g * v_in[d];
      v_in[d] -= gin;
    }
  }
}

nn::Matrix SkipGramTrainer::Train(const traj::Dataset& dataset) {
  auto corpus = BuildCorpus(dataset);
  RL4_CHECK(!corpus.empty());
  // unigram_ is fixed for the rest of training; precompute the sampler.
  neg_sampler_ = std::make_unique<CategoricalSampler>(unigram_);
  size_t total_tokens = 0;
  for (const auto& seq : corpus) total_tokens += seq.size();
  const size_t total_steps =
      std::max<size_t>(1, total_tokens * config_.epochs);
  size_t step_count = 0;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(&corpus);
    for (const auto& seq : corpus) {
      for (size_t i = 0; i < seq.size(); ++i) {
        const double progress =
            static_cast<double>(step_count++) / total_steps;
        const double lr =
            std::max(config_.min_lr, config_.lr * (1.0 - progress));
        const int win = 1 + static_cast<int>(rng_.UniformInt(
                                static_cast<uint64_t>(config_.window)));
        for (int d = -win; d <= win; ++d) {
          if (d == 0) continue;
          const int64_t j = static_cast<int64_t>(i) + d;
          if (j < 0 || j >= static_cast<int64_t>(seq.size())) continue;
          UpdatePair(seq[i], seq[j], lr);
        }
        UpdateAux(seq[i], lr);
      }
    }
  }
  return in_;
}

}  // namespace rl4oasd::embed
