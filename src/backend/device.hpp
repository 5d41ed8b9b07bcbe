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
#include <string_view>
#include <vector>

#include "core/gpu_simulator.hpp"
#include "core/simulator.hpp"

namespace pedsim::backend {

enum class DeviceType {
    kCpu,   ///< the paper's sequential host reference, sliced by threads
    kSimt,  ///< the tiled SIMT engine on the modeled device
};

/// The engine type's historical spelling, kept because the benchmark
/// harness (perfbench/harness.cpp) names it.
using EngineSelect = DeviceType;

/// Registry name of a device type ("cpu", "gpu-simt").
const char* device_name(DeviceType type);

/// Parse one engine/backend name: "cpu" or "gpu-simt" (aliases "gpu",
/// "simt"). "sharded-cpu" and "sharded" are parse aliases of "cpu", kept
/// because perfbench's plan names an engine "sharded:4"; their optional
/// ":<digits>" suffix is validated and then ignored. Returns false on
/// unknown names and on a suffix anywhere else ("cpu:4").
bool try_parse_device(std::string_view name, DeviceType& out);

/// try_parse_device or throw std::invalid_argument naming the input.
DeviceType parse_device(std::string_view name);

/// Parse a comma-separated engine list ("cpu,gpu-simt").
std::vector<DeviceType> parse_device_list(std::string_view csv);

/// The factory (TestDevice.hpp idiom): the only place in the tree that
/// constructs engines. The optional `warm` schedule skips the field
/// precompute; it must come from a config with the same grid, layout and
/// events (core::Simulator states the contract), and the server's
/// scenario cache is the intended supplier.
std::unique_ptr<core::Simulator> make_engine(
    DeviceType type, const core::SimConfig& cfg,
    std::shared_ptr<const core::DoorSchedule> warm = nullptr);

/// Typed SIMT factory for harnesses that need engine-specific APIs
/// (launch_log(), staging_stats()).
std::unique_ptr<core::GpuSimulator> make_simt(const core::SimConfig& cfg);

}  // namespace pedsim::backend
