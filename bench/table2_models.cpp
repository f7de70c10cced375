// Table II: structure, compression and accuracy of the three DNNs, via the
// full RAD pipeline (train -> BCM -> ADMM structured pruning -> quantize)
// on the synthetic stand-in datasets (BENCHMARKS.md "Paper claims"). Paper accuracies:
// MNIST 99%, HAR 89%, OKG 82% on the real datasets.

#include <iostream>

#include "core/rad/pipeline.h"
#include "core/rad/resource.h"
#include "util/table.h"

int main() {
  using namespace ehdnn;
  std::cout << "Table II - Structure and Accuracy of DNN (synthetic-data reproduction)\n";

  struct Job {
    models::Task task;
    float paper_acc;
    std::uint64_t seed;
    rad::RadConfig cfg;
  };
  std::vector<Job> jobs;
  {
    rad::RadConfig c;
    c.task = models::Task::kMnist;
    c.train_samples = 700;
    c.test_samples = 250;
    c.epochs = 5;
    c.sgd.lr = 0.02f;
    jobs.push_back({models::Task::kMnist, 0.99f, 41, c});
  }
  {
    rad::RadConfig c;
    c.task = models::Task::kHar;
    c.train_samples = 600;
    c.test_samples = 250;
    c.epochs = 6;
    c.sgd.lr = 0.02f;
    c.sgd.clip_norm = 1.0f;  // the wide BCM stack trains stably with a clip
    jobs.push_back({models::Task::kHar, 0.89f, 8, c});
  }
  {
    rad::RadConfig c;
    c.task = models::Task::kOkg;
    c.train_samples = 600;
    c.test_samples = 250;
    c.epochs = 8;
    c.sgd.lr = 0.005f;
    jobs.push_back({models::Task::kOkg, 0.82f, 43, c});
  }

  Table t({"Task", "Layer", "Compress Method", "Compression", "Float acc", "16-bit acc",
           "Paper acc"});
  for (auto& job : jobs) {
    Rng rng(job.seed);
    auto res = rad::run_rad(job.cfg, rng);
    bool first = true;
    for (const auto& l : res.layers) {
      t.add_row({first ? models::task_name(job.task) : "", l.name, l.method,
                 l.compression > 1.0 ? Table::num(l.compression, 1) + "x" : "-",
                 first ? Table::pct(res.float_accuracy, 1) : "",
                 first ? Table::pct(res.quant_accuracy, 1) : "",
                 first ? Table::pct(job.paper_acc, 0) : ""});
      first = false;
    }
    const auto rep = rad::estimate(res.qmodel);
    std::cout << models::task_name(job.task) << ": deployable weights "
              << rep.weight_bytes / 1024 << " KiB, FRAM plan " << rep.fram_bytes / 1024
              << " KiB (fits 256 KiB board: " << (rep.fits() ? "yes" : "NO") << ")\n";
  }
  t.print(std::cout);
  std::cout << "Note: accuracies are on the synthetic stand-in tasks (same shapes and\n"
               "class counts as the paper's datasets); the 16-bit column demonstrates\n"
               "that RAD's quantization costs ~nothing, which is the paper's claim.\n";
  return 0;
}
