#include "sim/recipe.h"

#include <limits>
#include <utility>

#include "models/zoo.h"
#include "power/monitor.h"
#include "sched/adaptive.h"
#include "sim/scenario.h"

namespace ehdnn::sim {

CompiledImage compile_image(const quant::QuantModel& primary, const quant::QuantModel* dense,
                            std::size_t fram_words) {
  dev::DeviceConfig cfg;
  cfg.fram_words = fram_words;
  CompiledImage img;
  img.snapshot = std::make_unique<dev::Device>(cfg);
  img.primary = ace::compile(primary, *img.snapshot);
  if (dense != nullptr) img.dense = ace::compile(*dense, *img.snapshot, /*co_resident=*/true);
  return img;
}

std::size_t fit_fram_words(const quant::QuantModel& primary, const quant::QuantModel* dense) {
  const std::size_t roomy = models::deployment_device_config(/*compressed=*/false).fram_words;
  return compile_image(primary, dense, roomy).snapshot->fram().allocated_words() + 1024;
}

ShippedVariants shipped_variants(const std::string& runtime) {
  return {runtime_uses_compressed_model(runtime), runtime_is_adaptive(runtime)};
}

std::unique_ptr<flex::RuntimePolicy> make_deployment_policy(const std::string& runtime,
                                                            const std::string& sched_spec,
                                                            bool force_admit_all) {
  // Without a spec, the runtime table's own factory — which for the
  // adaptive keys already carries the key's default spec (income ladder
  // for "adaptive", deadline selection for "adaptive-deadline").
  std::unique_ptr<flex::RuntimePolicy> policy =
      sched_spec.empty()
          ? make_policy(runtime)
          : sched::make_adaptive_policy(sched::parse_adaptive_spec(sched_spec));
  if (force_admit_all) {
    if (auto* ap = sched::as_adaptive(policy.get());
        ap != nullptr && ap->spec().admit != sched::Admission::kAll) {
      sched::AdaptiveSpec spec = ap->spec();
      spec.admit = sched::Admission::kAll;
      policy = sched::make_adaptive_policy(std::move(spec));
    }
  }
  return policy;
}

std::unique_ptr<ProvisionedDevice> provision(const DeviceRecipe& recipe,
                                             const CompiledImage& image) {
  dev::DeviceConfig cfg = image.snapshot->config();
  cfg.scramble_seed = recipe.scramble_seed;
  auto p = std::make_unique<ProvisionedDevice>(cfg);
  if (recipe.trace_capacity > 0) {
    p->trace.set_capacity(static_cast<std::size_t>(recipe.trace_capacity));
  }
  if (recipe.source != nullptr) {
    p->source.emplace(*recipe.source, recipe.offset_s);
    p->capacitor.emplace(*p->source, recipe.capacitor);
    p->capacitor->set_trace(&p->trace);
    p->device.attach_supply(&*p->capacitor);
  } else {
    p->device.attach_supply(&p->bench);
  }
  // Stamp the image instead of re-running ace::compile: identical FRAM
  // bytes and allocator state.
  p->device.fram().clone_from(image.snapshot->fram());
  p->device.sram().clone_from(image.snapshot->sram());

  p->policy =
      make_deployment_policy(recipe.runtime, recipe.sched_spec, recipe.force_admit_all);
  const double worst_ck = sched::provision_deployment(
      *p->policy, p->device.cost(), image.primary, image.dense_or_null(),
      p->capacitor ? p->capacitor->burst_energy() : std::numeric_limits<double>::infinity());
  p->opts = recipe.opts;
  if (p->capacitor) {
    p->opts.flex_v_warn = power::flex_warn_voltage(recipe.capacitor, worst_ck);
  }
  p->opts.trace = &p->trace;
  return p;
}

}  // namespace ehdnn::sim
