// Ablation (Fig. 5): circular-buffer convolution. An N-layer inference
// naively needs one activation buffer per layer (sum of L_i); ACE's
// ping-pong reuse needs two buffers of max(L_i) regardless of depth.

#include "bench_common.h"

int main() {
  using namespace ehdnn;
  using namespace ehdnn::bench;
  std::cout << "Ablation - circular-buffer convolution memory (Fig. 5)\n";

  Table t({"Task", "Layers", "N-buffer bytes (sum Li)", "ACE 2-buffer bytes (2 max Li)",
           "Saving"});
  for (models::Task task :
       {models::Task::kMnist, models::Task::kHar, models::Task::kOkg}) {
    Rng rng(5 + static_cast<std::uint64_t>(task));
    const auto qm = models::make_deployed_qmodel(task, /*compressed=*/true, rng);
    std::size_t sum = qm.layers.front().in_size();
    for (const auto& l : qm.layers) sum += l.out_size();
    const std::size_t two = 2 * qm.max_activation_words();
    t.add_row({models::task_name(task), std::to_string(qm.layers.size()),
               std::to_string(sum * 2), std::to_string(two * 2),
               Table::num(static_cast<double>(sum) / static_cast<double>(two), 2) + "x"});
  }
  t.print(std::cout);
  return 0;
}
