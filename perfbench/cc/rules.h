// The benchmark's reporting rules, as pure functions so tests can check
// them against hand-computed cases.

#ifndef PERFBENCH_RULES_H_
#define PERFBENCH_RULES_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

/// Median of a sample (mean of the middle two for even sizes); 0 if empty.
double Median(std::vector<double> values);

/// Nearest-rank samples strictly above the q-quantile of n samples:
/// n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// The highest of the percentiles {0.5, 0.9, 0.99, 0.999, 0.9999} that has
/// at least `min_beyond` (10) samples beyond it among n samples; 0 when even
/// the median has fewer.
double TailQuantile(size_t n, size_t min_beyond = 10);

/// Outcome of sending one fixed rate of the open-loop ladder.
struct RungResult {
  int rung = -1;              ///< Ladder index k; -1 off the ladder.
  double offered_rps = 0.0;   ///< The ladder rate.
  double achieved_rps = 0.0;  ///< Requests resolved per second of the rung.
  size_t sent = 0;
  size_t served = 0;          ///< Resolved with a correct score.
  size_t shed = 0;            ///< Refused by admission control.
  size_t failed = 0;          ///< Failed, or served a wrong score.
  double tail_q = 0.0;        ///< TailQuantile(latency samples).
  double tail_us = 0.0;       ///< Latency at tail_q.
  double p50_us = 0.0;
  double p90_us = 0.0;
  double gen_late_p99_us = 0.0;
  bool backlog_grew = false;
};

/// A rung meets the limit when its latency tail reaches p99 (enough
/// samples) and stays within `p99_limit_us`, every request was served
/// correctly (none shed or failed), and the backlog did not grow.
bool RungMeetsLimit(const RungResult& rung, double p99_limit_us);

/// serve_max_rps: the achieved rate of the highest offered rate that meets
/// the limit; 0 when no rung does.
double MaxRateMeetingLimit(const std::vector<RungResult>& rungs,
                           double p99_limit_us);

/// Backlog rule: the in-flight count grew when its mean over the last
/// quarter of a rung exceeds twice its mean over the second quarter plus
/// `slack` requests (slack absorbs batching and short stalls).
bool BacklogGrew(double second_quarter_mean, double last_quarter_mean,
                 double slack);

/// Rate of rung k of the fixed ladder: base * ratio^k.
double LadderRate(int k);

/// The highest rung of the ladder, ~2M requests/s.
inline constexpr int kTopRung = 120;

/// One ladder climb. `send(k)` sends rung k once and returns its result; a
/// rung that misses the limit is sent once more before it counts as
/// missed, so a single stall of the host does not decide it. From
/// `start_rung` the climb steps up `stride` rungs at a time while rungs
/// meet the limit; when `start_rung` itself misses, it steps down instead
/// until a rung meets it (or rung 0 missed too). It then bisects between
/// the highest rung that met the limit and the lowest that missed. Returns
/// every result, in the order sent.
std::vector<RungResult> ClimbLadder(const std::function<RungResult(int)>& send,
                                    int start_rung, int stride,
                                    double p99_limit_us);

}  // namespace perfbench

#endif  // PERFBENCH_RULES_H_
