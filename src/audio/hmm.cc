#include "audio/hmm.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mmconf::audio {

namespace {

constexpr double kLogZero = -1e30;

double SafeLog(double p) { return p > 0 ? std::log(p) : kLogZero; }

}  // namespace

Hmm::Hmm(int num_states, int num_mixtures, int dim, bool left_to_right)
    : dim_(dim),
      left_to_right_(left_to_right),
      emissions_(static_cast<size_t>(num_states),
                 DiagGmm(num_mixtures, dim)),
      log_init_(static_cast<size_t>(num_states), kLogZero),
      log_trans_(static_cast<size_t>(num_states),
                 std::vector<double>(static_cast<size_t>(num_states),
                                     kLogZero)) {
  if (left_to_right) {
    log_init_[0] = 0.0;
    for (int i = 0; i < num_states; ++i) {
      if (i + 1 < num_states) {
        log_trans_[static_cast<size_t>(i)][static_cast<size_t>(i)] =
            std::log(0.5);
        log_trans_[static_cast<size_t>(i)][static_cast<size_t>(i + 1)] =
            std::log(0.5);
      } else {
        log_trans_[static_cast<size_t>(i)][static_cast<size_t>(i)] = 0.0;
      }
    }
  } else {
    double log_uniform = -std::log(static_cast<double>(num_states));
    for (int i = 0; i < num_states; ++i) {
      log_init_[static_cast<size_t>(i)] = log_uniform;
      for (int j = 0; j < num_states; ++j) {
        log_trans_[static_cast<size_t>(i)][static_cast<size_t>(j)] =
            log_uniform;
      }
    }
  }
}

Hmm Hmm::LeftToRight(int num_states, int num_mixtures, int dim) {
  return Hmm(num_states, num_mixtures, dim, /*left_to_right=*/true);
}

Hmm Hmm::Ergodic(int num_states, int num_mixtures, int dim) {
  return Hmm(num_states, num_mixtures, dim, /*left_to_right=*/false);
}

Result<std::vector<std::vector<double>>> Hmm::ForwardLattice(
    const std::vector<FeatureVector>& seq) const {
  const size_t T = seq.size();
  const size_t N = emissions_.size();
  if (T == 0) return Status::InvalidArgument("empty observation sequence");
  std::vector<std::vector<double>> alpha(T, std::vector<double>(N));
  for (size_t j = 0; j < N; ++j) {
    alpha[0][j] = log_init_[j] + emissions_[j].LogLikelihood(seq[0]);
  }
  std::vector<double> terms(N);
  for (size_t t = 1; t < T; ++t) {
    for (size_t j = 0; j < N; ++j) {
      for (size_t i = 0; i < N; ++i) {
        terms[i] = alpha[t - 1][i] + log_trans_[i][j];
      }
      alpha[t][j] = LogSumExp(terms) + emissions_[j].LogLikelihood(seq[t]);
    }
  }
  return alpha;
}

std::vector<std::vector<double>> Hmm::BackwardLattice(
    const std::vector<FeatureVector>& seq) const {
  const size_t T = seq.size();
  const size_t N = emissions_.size();
  std::vector<std::vector<double>> beta(T, std::vector<double>(N, 0.0));
  std::vector<double> terms(N);
  for (size_t t = T - 1; t-- > 0;) {
    for (size_t i = 0; i < N; ++i) {
      for (size_t j = 0; j < N; ++j) {
        terms[j] = log_trans_[i][j] +
                   emissions_[j].LogLikelihood(seq[t + 1]) + beta[t + 1][j];
      }
      beta[t][i] = LogSumExp(terms);
    }
  }
  return beta;
}

Result<double> Hmm::LogForward(const std::vector<FeatureVector>& seq) const {
  MMCONF_ASSIGN_OR_RETURN(std::vector<std::vector<double>> alpha,
                          ForwardLattice(seq));
  return LogSumExp(alpha.back());
}

Result<double> Hmm::AvgLogForward(
    const std::vector<FeatureVector>& seq) const {
  MMCONF_ASSIGN_OR_RETURN(double total, LogForward(seq));
  return total / static_cast<double>(seq.size());
}

Result<ViterbiResult> Hmm::Viterbi(
    const std::vector<FeatureVector>& seq) const {
  const size_t T = seq.size();
  const size_t N = emissions_.size();
  if (T == 0) return Status::InvalidArgument("empty observation sequence");
  std::vector<std::vector<double>> delta(T, std::vector<double>(N));
  std::vector<std::vector<int>> backpointer(T, std::vector<int>(N, 0));
  for (size_t j = 0; j < N; ++j) {
    delta[0][j] = log_init_[j] + emissions_[j].LogLikelihood(seq[0]);
  }
  for (size_t t = 1; t < T; ++t) {
    for (size_t j = 0; j < N; ++j) {
      double best = -std::numeric_limits<double>::infinity();
      int best_state = 0;
      for (size_t i = 0; i < N; ++i) {
        double score = delta[t - 1][i] + log_trans_[i][j];
        if (score > best) {
          best = score;
          best_state = static_cast<int>(i);
        }
      }
      delta[t][j] = best + emissions_[j].LogLikelihood(seq[t]);
      backpointer[t][j] = best_state;
    }
  }
  ViterbiResult result;
  result.states.resize(T);
  size_t last = 0;
  for (size_t j = 1; j < N; ++j) {
    if (delta[T - 1][j] > delta[T - 1][last]) last = j;
  }
  result.log_likelihood = delta[T - 1][last];
  result.states[T - 1] = static_cast<int>(last);
  for (size_t t = T - 1; t-- > 0;) {
    result.states[t] =
        backpointer[t + 1][static_cast<size_t>(result.states[t + 1])];
  }
  return result;
}

Status Hmm::Train(const std::vector<std::vector<FeatureVector>>& sequences,
                  int iterations, Rng& rng) {
  const size_t N = emissions_.size();
  if (N == 0) return Status::FailedPrecondition("model has no states");
  // Collect usable sequences and initialize emissions from a hard
  // segmentation.
  std::vector<const std::vector<FeatureVector>*> usable;
  for (const auto& seq : sequences) {
    if (seq.size() >= N) usable.push_back(&seq);
  }
  if (usable.empty()) {
    return Status::InvalidArgument(
        "no training sequence is at least as long as the state count");
  }
  std::vector<std::vector<FeatureVector>> state_data(N);
  for (const auto* seq : usable) {
    for (size_t t = 0; t < seq->size(); ++t) {
      size_t state =
          left_to_right_ ? t * N / seq->size() : t % N;  // uniform / RR
      state_data[state].push_back((*seq)[t]);
    }
  }
  for (size_t j = 0; j < N; ++j) {
    MMCONF_RETURN_IF_ERROR(emissions_[j].Train(state_data[j], 5, rng));
  }

  // Baum-Welch.
  const double kMinLogTrans = kLogZero;
  for (int iteration = 0; iteration < iterations; ++iteration) {
    // Accumulators.
    std::vector<double> init_acc(N, 0.0);
    std::vector<std::vector<double>> trans_acc(
        N, std::vector<double>(N, 0.0));
    std::vector<double> state_occ(N, 0.0);
    // Per state, per mixture accumulators for emission re-estimation.
    const int M = emissions_[0].num_components();
    std::vector<std::vector<double>> mix_occ(
        N, std::vector<double>(static_cast<size_t>(M), 0.0));
    std::vector<std::vector<FeatureVector>> mix_mean_acc(
        N, std::vector<FeatureVector>(
               static_cast<size_t>(M),
               FeatureVector(static_cast<size_t>(dim_), 0.0)));
    std::vector<std::vector<FeatureVector>> mix_sq_acc = mix_mean_acc;

    for (const auto* seq_ptr : usable) {
      const std::vector<FeatureVector>& seq = *seq_ptr;
      const size_t T = seq.size();
      MMCONF_ASSIGN_OR_RETURN(std::vector<std::vector<double>> alpha,
                              ForwardLattice(seq));
      std::vector<std::vector<double>> beta = BackwardLattice(seq);
      double log_prob = LogSumExp(alpha.back());
      if (!std::isfinite(log_prob) || log_prob < kMinLogTrans / 2) {
        continue;  // Sequence unexplainable under current parameters.
      }
      // State occupancies (gamma) and transition counts (xi).
      for (size_t t = 0; t < T; ++t) {
        for (size_t j = 0; j < N; ++j) {
          double gamma = std::exp(alpha[t][j] + beta[t][j] - log_prob);
          if (t == 0) init_acc[j] += gamma;
          state_occ[j] += gamma;
          // Mixture responsibilities within the state.
          std::vector<double> joint = emissions_[j].ComponentLogJoint(seq[t]);
          double norm = LogSumExp(joint);
          for (int m = 0; m < M; ++m) {
            double r = gamma * std::exp(joint[static_cast<size_t>(m)] - norm);
            mix_occ[j][static_cast<size_t>(m)] += r;
            for (size_t d = 0; d < seq[t].size(); ++d) {
              mix_mean_acc[j][static_cast<size_t>(m)][d] += r * seq[t][d];
              mix_sq_acc[j][static_cast<size_t>(m)][d] +=
                  r * seq[t][d] * seq[t][d];
            }
          }
        }
        if (t + 1 < T) {
          for (size_t i = 0; i < N; ++i) {
            for (size_t j = 0; j < N; ++j) {
              if (log_trans_[i][j] <= kMinLogTrans) continue;  // structural 0
              double xi = std::exp(alpha[t][i] + log_trans_[i][j] +
                                   emissions_[j].LogLikelihood(seq[t + 1]) +
                                   beta[t + 1][j] - log_prob);
              trans_acc[i][j] += xi;
            }
          }
        }
      }
    }

    // Re-estimate initial probabilities.
    double init_total = 0;
    for (double v : init_acc) init_total += v;
    if (init_total > 0) {
      for (size_t j = 0; j < N; ++j) {
        if (log_init_[j] <= kMinLogTrans && left_to_right_) continue;
        log_init_[j] = SafeLog(init_acc[j] / init_total);
      }
    }
    // Re-estimate transitions (row-normalized, preserving structural
    // zeros).
    for (size_t i = 0; i < N; ++i) {
      double row_total = 0;
      for (size_t j = 0; j < N; ++j) row_total += trans_acc[i][j];
      if (row_total <= 0) continue;
      for (size_t j = 0; j < N; ++j) {
        if (log_trans_[i][j] <= kMinLogTrans) continue;
        log_trans_[i][j] = SafeLog(trans_acc[i][j] / row_total + 1e-10);
      }
    }
    // Re-estimate emissions.
    for (size_t j = 0; j < N; ++j) {
      if (state_occ[j] < 1e-6) continue;
      std::vector<double> weights(static_cast<size_t>(M));
      std::vector<FeatureVector> means(
          static_cast<size_t>(M), FeatureVector(static_cast<size_t>(dim_)));
      std::vector<FeatureVector> variances = means;
      double occ_total = 0;
      for (int m = 0; m < M; ++m) {
        occ_total += mix_occ[j][static_cast<size_t>(m)];
      }
      bool usable_state = occ_total > 1e-6;
      if (!usable_state) continue;
      for (int m = 0; m < M; ++m) {
        double occ = mix_occ[j][static_cast<size_t>(m)];
        if (occ < 1e-8) {
          // Dead mixture: keep previous parameters.
          weights[static_cast<size_t>(m)] =
              emissions_[j].weights()[static_cast<size_t>(m)];
          means[static_cast<size_t>(m)] =
              emissions_[j].means()[static_cast<size_t>(m)];
          variances[static_cast<size_t>(m)] =
              emissions_[j].variances()[static_cast<size_t>(m)];
          continue;
        }
        weights[static_cast<size_t>(m)] = occ / occ_total;
        for (size_t d = 0; d < static_cast<size_t>(dim_); ++d) {
          double mean = mix_mean_acc[j][static_cast<size_t>(m)][d] / occ;
          double variance =
              mix_sq_acc[j][static_cast<size_t>(m)][d] / occ - mean * mean;
          means[static_cast<size_t>(m)][d] = mean;
          variances[static_cast<size_t>(m)][d] =
              std::max(DiagGmm::kVarianceFloor, variance);
        }
      }
      // Renormalize weights (dead mixtures kept their stale weight).
      double weight_sum = 0;
      for (double w : weights) weight_sum += w;
      for (double& w : weights) w /= weight_sum;
      MMCONF_RETURN_IF_ERROR(emissions_[j].SetParameters(
          std::move(weights), std::move(means), std::move(variances)));
    }
  }
  return Status::OK();
}

}  // namespace mmconf::audio
