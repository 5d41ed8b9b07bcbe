#include "backend/device.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/cpu_simulator.hpp"

namespace pedsim::backend {

const char* device_name(DeviceType type) {
    switch (type) {
        case DeviceType::kCpu:
            return "cpu";
        case DeviceType::kSimt:
            return "gpu-simt";
    }
    return "unknown";
}

bool try_parse_device(std::string_view name, EngineSelect& out) {
    int bands = 0;
    // Optional ":<bands>" suffix (meaningful for the sharded spelling).
    if (const auto colon = name.find(':'); colon != std::string_view::npos) {
        const std::string_view suffix = name.substr(colon + 1);
        if (suffix.empty()) return false;
        int value = 0;
        for (const char ch : suffix) {
            if (ch < '0' || ch > '9') return false;
            value = value * 10 + (ch - '0');
            if (value > 1 << 20) return false;
        }
        bands = value;
        name = name.substr(0, colon);
    }
    if (name == "cpu") {
        out = {DeviceType::kCpu};
        return bands == 0;  // bands suffix is a sharded-only notion
    }
    if (name == "gpu" || name == "simt" || name == "gpu-simt") {
        out = {DeviceType::kSimt};
        return bands == 0;
    }
    if (name == "sharded" || name == "sharded-cpu") {
        out = {DeviceType::kCpu, bands};
        return true;
    }
    return false;
}

EngineSelect parse_device(std::string_view name) {
    EngineSelect sel;
    if (!try_parse_device(name, sel)) {
        throw std::invalid_argument(
            "unknown engine/backend '" + std::string(name) +
            "' (expected one of cpu, gpu-simt, sharded-cpu; sharded takes "
            "an optional :<bands> suffix)");
    }
    return sel;
}

std::vector<EngineSelect> parse_device_list(std::string_view csv) {
    std::vector<EngineSelect> out;
    while (!csv.empty()) {
        const auto comma = csv.find(',');
        const std::string_view item = csv.substr(0, comma);
        if (!item.empty()) out.push_back(parse_device(item));
        if (comma == std::string_view::npos) break;
        csv.remove_prefix(comma + 1);
    }
    return out;
}

std::string engine_label(DeviceType type, int bands) {
    if (type == DeviceType::kCpu && bands > 0) {
        return "sharded-cpu:" + std::to_string(bands);
    }
    return device_name(type);
}

std::unique_ptr<core::Simulator> make_engine(
    const EngineSelect& sel, const core::SimConfig& cfg,
    std::shared_ptr<const core::DoorSchedule> warm) {
    if (sel.bands < 0) {
        throw std::invalid_argument("make_engine: negative band count " +
                                    std::to_string(sel.bands));
    }
    switch (sel.type) {
        case DeviceType::kCpu:
            return std::make_unique<core::CpuSimulator>(cfg, sel.bands,
                                                        std::move(warm));
        case DeviceType::kSimt:
            return std::make_unique<core::GpuSimulator>(
                cfg, core::GpuOptions{}, std::move(warm));
    }
    throw std::invalid_argument("make_engine: unknown device type");
}

std::unique_ptr<core::Simulator> make_cpu(const core::SimConfig& cfg) {
    return make_engine(DeviceType::kCpu, cfg);
}

std::unique_ptr<core::GpuSimulator> make_simt(const core::SimConfig& cfg,
                                              core::GpuOptions options) {
    return std::make_unique<core::GpuSimulator>(cfg, std::move(options));
}

}  // namespace pedsim::backend
