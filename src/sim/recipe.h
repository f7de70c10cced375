// One way to build a device: compile a deployment's model(s) into an
// image once, then provision each device from it — stamp the image, build
// the supply and runtime policy, provision the adaptive scheduler and
// size FLEX's warn voltage from the worst-case checkpoint. The fleet, the
// scenario sweep (and paper_claims on top of it) and the contract
// checker all build their devices here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "device/device.h"
#include "obs/events.h"
#include "power/capacitor.h"
#include "power/continuous.h"
#include "power/harvest.h"
#include "quant/qmodel.h"

namespace ehdnn::sim {

// A compiled execution image. ace::compile is a pure function of (model,
// device geometry) that draws no energy and touches no per-device
// randomness, so stamping a device's FRAM/SRAM from the post-compile
// snapshot (MemoryRegion::clone_from) is indistinguishable from compiling
// onto it. Read-only once built: every device shipping the image, on any
// worker thread, shares its CompiledModels.
struct CompiledImage {
  ace::CompiledModel primary;               // the model the executor is armed with
  std::optional<ace::CompiledModel> dense;  // co-resident dense twin (adaptive)
  std::unique_ptr<dev::Device> snapshot;    // post-compile FRAM/SRAM

  const ace::CompiledModel* dense_or_null() const { return dense ? &*dense : nullptr; }
};

// Compiles `primary`, then `dense` co-resident when non-null, onto a
// device with `fram_words` FRAM words.
CompiledImage compile_image(const quant::QuantModel& primary, const quant::QuantModel* dense,
                            std::size_t fram_words);

// The image's compile high-water mark plus 1024 words of slack, so a
// mixed population's FRAM follows what each device ships.
std::size_t fit_fram_words(const quant::QuantModel& primary, const quant::QuantModel* dense);

// The model variants a runtime key ships: one for fixed runtimes, the
// compressed primary plus the dense twin for the adaptive scheduler.
struct ShippedVariants {
  bool primary_compressed = true;
  bool dense_twin = false;

  bool ships(bool compressed) const {
    return compressed == primary_compressed || (dense_twin && !compressed);
  }
};
ShippedVariants shipped_variants(const std::string& runtime);

// The runtime key's policy (sim::make_policy), or an adaptive policy from
// `sched_spec` when one is given; `force_admit_all` turns energy-budgeted
// admission off (the admission-comparison reruns).
std::unique_ptr<flex::RuntimePolicy> make_deployment_policy(const std::string& runtime,
                                                            const std::string& sched_spec,
                                                            bool force_admit_all = false);

// What distinguishes one device from another that ships the same image.
struct DeviceRecipe {
  std::string runtime = "flex";
  std::string sched_spec;  // empty = the runtime key's default
  bool force_admit_all = false;
  // A capacitor charged from `source` (which must outlive the device)
  // shifted by offset_s, or bench power when source is null.
  const power::HarvestSource* source = nullptr;
  double offset_s = 0.0;
  power::CapacitorConfig capacitor;
  std::uint64_t scramble_seed = dev::DeviceConfig{}.scramble_seed;
  // provision fills in flex_v_warn (capacitor supplies only) and trace.
  flex::RunOptions opts;
  long trace_capacity = 0;  // > 0 keeps a ring of recent events; 0 counts only
};

// A provisioned device. Its members point at each other (device ->
// supply -> source view, opts -> trace), so it stays put behind a
// unique_ptr.
struct ProvisionedDevice {
  std::optional<power::TimeOffsetSource> source;
  std::optional<power::CapacitorSupply> capacitor;
  power::ContinuousPower bench;  // the supply when there is no source
  dev::Device device;
  std::unique_ptr<flex::RuntimePolicy> policy;
  obs::EventTrace trace;
  flex::RunOptions opts;

  explicit ProvisionedDevice(const dev::DeviceConfig& cfg) : device(cfg) {}
  ProvisionedDevice(const ProvisionedDevice&) = delete;
  ProvisionedDevice& operator=(const ProvisionedDevice&) = delete;
};

// Builds the device `recipe` describes, stamped from `image` (which must
// outlive it).
std::unique_ptr<ProvisionedDevice> provision(const DeviceRecipe& recipe,
                                             const CompiledImage& image);

}  // namespace ehdnn::sim
