// Backend seam: every harness selects an engine through this layer.
//
// Modeled on poplibs' TestDevice.hpp: one DeviceType enum behind one
// make_engine() switch. The concrete engine classes (core::CpuSimulator,
// core::GpuSimulator) are construction details of that switch: nothing
// outside src/backend/ constructs an engine directly, and CLIs resolve
// engine names through the registry helpers here instead of ad-hoc string
// comparisons.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/gpu_simulator.hpp"
#include "core/simulator.hpp"

namespace pedsim::backend {

enum class DeviceType {
    kCpu,   ///< the paper's sequential / sliced host reference
    kSimt,  ///< the tiled SIMT engine on the modeled device
};

/// Engine selection as carried by CLIs, the batch runner and the server:
/// a device plus, for kCpu, the row-band count its stages slice over
/// (0 = slices planned from the engine thread count; N > 0 = exactly N
/// bands, the `sharded-cpu:N` spelling; ignored by kSimt). Implicitly
/// constructible from a bare DeviceType so call sites without bands read
/// unchanged.
struct EngineSelect {
    DeviceType type = DeviceType::kCpu;
    int bands = 0;

    EngineSelect() = default;
    // NOLINTNEXTLINE(google-explicit-constructor): DeviceType is a valid
    // selection on its own; the implicit form keeps `{kCpu, kSimt}`
    // engine lists readable everywhere.
    EngineSelect(DeviceType t, int b = 0) : type(t), bands(b) {}

    bool operator==(const EngineSelect&) const = default;
};

/// Registry name of a device type ("cpu", "gpu-simt").
const char* device_name(DeviceType type);

/// Parse one engine/backend name: "cpu", "gpu-simt" (aliases "gpu",
/// "simt"), and "sharded-cpu" (alias "sharded") with an optional
/// ":<bands>" suffix, which selects kCpu with that band count. Returns
/// false on unknown names and on a suffix anywhere else ("cpu:4").
bool try_parse_device(std::string_view name, EngineSelect& out);

/// try_parse_device or throw std::invalid_argument naming the input.
EngineSelect parse_device(std::string_view name);

/// Parse a comma-separated engine list ("cpu,gpu-simt,sharded:2").
std::vector<EngineSelect> parse_device_list(std::string_view csv);

/// Display/corpus label of a selection: the registry name, or
/// "sharded-cpu:N" for kCpu with an explicit band count, so fingerprint
/// rows and bench CSVs stay self-describing without new columns.
std::string engine_label(DeviceType type, int bands);

/// The factory (TestDevice.hpp idiom): the only place in the tree that
/// constructs engines. The optional `warm` schedule skips the field
/// precompute; it must come from a config with the same grid, layout and
/// events (core::Simulator states the contract), and the server's
/// scenario cache is the intended supplier. Throws std::invalid_argument
/// for a negative band count or one above the grid's rows ("bands (N)
/// exceeds grid rows (R)").
std::unique_ptr<core::Simulator> make_engine(
    const EngineSelect& sel, const core::SimConfig& cfg,
    std::shared_ptr<const core::DoorSchedule> warm = nullptr);

/// The paper's sequential CPU comparator.
std::unique_ptr<core::Simulator> make_cpu(const core::SimConfig& cfg);

/// Typed SIMT factory for harnesses that need engine-specific APIs
/// (launch_log(), ablation GpuOptions).
std::unique_ptr<core::GpuSimulator> make_simt(const core::SimConfig& cfg,
                                              core::GpuOptions options = {});

}  // namespace pedsim::backend
