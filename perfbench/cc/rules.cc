#include "rules.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

constexpr double kLadderBaseRps = 2000.0;
constexpr double kLadderRatio = 1.06;

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

size_t SamplesBeyond(size_t n, double q) {
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

double TailQuantile(size_t n, size_t min_beyond) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (SamplesBeyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

bool RungMeetsLimit(const RungResult& rung, double p99_limit_us) {
  return rung.tail_q >= 0.99 && rung.tail_us <= p99_limit_us &&
         rung.shed == 0 && rung.failed == 0 && rung.served == rung.sent &&
         !rung.backlog_grew;
}

double MaxRateMeetingLimit(const std::vector<RungResult>& rungs,
                           double p99_limit_us) {
  const RungResult* best = nullptr;
  for (const RungResult& rung : rungs) {
    if (!RungMeetsLimit(rung, p99_limit_us)) continue;
    if (best == nullptr || rung.offered_rps > best->offered_rps) best = &rung;
  }
  return best == nullptr ? 0.0 : best->achieved_rps;
}

bool BacklogGrew(double second_quarter_mean, double last_quarter_mean,
                 double slack) {
  return last_quarter_mean > 2.0 * second_quarter_mean + slack;
}

double LadderRate(int k) { return kLadderBaseRps * std::pow(kLadderRatio, k); }

std::vector<RungResult> ClimbLadder(const std::function<RungResult(int)>& send,
                                    int start_rung, int stride,
                                    double p99_limit_us) {
  std::vector<RungResult> rungs;
  auto meets = [&](int k) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      rungs.push_back(send(k));
      rungs.back().rung = k;
      if (RungMeetsLimit(rungs.back(), p99_limit_us)) return true;
    }
    return false;
  };
  // last_met = -1 stands for "below rung 0": nothing met the limit yet.
  int last_met = -1;
  int first_missed = -1;
  int k = std::clamp(start_rung, 0, kTopRung);
  if (meets(k)) {
    for (last_met = k, k += stride; k <= kTopRung; k += stride) {
      if (!meets(k)) {
        first_missed = k;
        break;
      }
      last_met = k;
    }
    if (first_missed < 0) return rungs;  // the whole ladder met the limit
  } else {
    for (first_missed = k, k -= stride; k >= 0; k -= stride) {
      if (meets(k)) {
        last_met = k;
        break;
      }
      first_missed = k;
    }
  }
  while (first_missed - last_met > 1) {
    const int mid = last_met + (first_missed - last_met) / 2;
    if (meets(mid)) {
      last_met = mid;
    } else {
      first_missed = mid;
    }
  }
  return rungs;
}

}  // namespace perfbench
