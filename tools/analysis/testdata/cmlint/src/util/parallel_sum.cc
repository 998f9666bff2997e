// Accumulates from ParallelFor bodies.
#include <vector>
double Sum(ThreadPool& pool, const std::vector<double>& xs) {
  double total = 0.0;
  pool.ParallelFor(xs.size(), [&](size_t i) {
    total += xs[i];
  });
  return total;
}
double SafeSum(ThreadPool& pool, const std::vector<double>& xs) {
  std::vector<double> partial(xs.size(), 0.0);
  pool.ParallelFor(xs.size(), [&](size_t i) {
    double local = 0.0;
    local += xs[i];
    partial[i] += local;
  });
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}
double BlessedSum(ThreadPool& pool, std::vector<double>& xs) {
  double total = 0.0;
  pool.ParallelFor(xs.size(), [&](size_t i) {
    total += xs[i];  // cmlint: parallel-ok — guarded upstream
  });
  return total;
}
