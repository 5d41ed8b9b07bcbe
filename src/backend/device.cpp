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

bool try_parse_device(std::string_view name, DeviceType& out) {
    const auto colon = name.find(':');
    const std::string_view base = name.substr(0, colon);
    const bool alias = base == "sharded" || base == "sharded-cpu";
    // Only the aliases take a suffix: ":<digits>", validated and ignored.
    if (colon != std::string_view::npos) {
        const std::string_view suffix = name.substr(colon + 1);
        if (!alias || suffix.empty()) return false;
        int value = 0;
        for (const char ch : suffix) {
            if (ch < '0' || ch > '9') return false;
            value = value * 10 + (ch - '0');
            if (value > 1 << 20) return false;
        }
    }
    if (base == "cpu" || alias) {
        out = DeviceType::kCpu;
        return true;
    }
    if (base == "gpu" || base == "simt" || base == "gpu-simt") {
        out = DeviceType::kSimt;
        return true;
    }
    return false;
}

DeviceType parse_device(std::string_view name) {
    DeviceType type = DeviceType::kCpu;
    if (!try_parse_device(name, type)) {
        throw std::invalid_argument("unknown engine/backend '" +
                                    std::string(name) +
                                    "' (expected one of cpu, gpu-simt)");
    }
    return type;
}

std::vector<DeviceType> parse_device_list(std::string_view csv) {
    std::vector<DeviceType> out;
    while (!csv.empty()) {
        const auto comma = csv.find(',');
        const std::string_view item = csv.substr(0, comma);
        if (!item.empty()) out.push_back(parse_device(item));
        if (comma == std::string_view::npos) break;
        csv.remove_prefix(comma + 1);
    }
    return out;
}

std::unique_ptr<core::Simulator> make_engine(
    DeviceType type, const core::SimConfig& cfg,
    std::shared_ptr<const core::DoorSchedule> warm) {
    switch (type) {
        case DeviceType::kCpu:
            return std::make_unique<core::CpuSimulator>(cfg, std::move(warm));
        case DeviceType::kSimt:
            return std::make_unique<core::GpuSimulator>(
                cfg, core::GpuOptions{}, std::move(warm));
    }
    throw std::invalid_argument("make_engine: unknown device type");
}

std::unique_ptr<core::GpuSimulator> make_simt(const core::SimConfig& cfg,
                                              core::GpuOptions options) {
    return std::make_unique<core::GpuSimulator>(cfg, std::move(options));
}

}  // namespace pedsim::backend
