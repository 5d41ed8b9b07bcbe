#include "backend/cli.hpp"

#include <stdexcept>
#include <string>

namespace pedsim::backend {

std::vector<DeviceType> engines_from_args(
    const io::ArgParser& args, std::vector<DeviceType> fallback) {
    for (const char* removed : {"engines", "engine"}) {
        if (args.has(removed)) {
            throw std::invalid_argument(std::string("--") + removed +
                                        " was removed; use --backend");
        }
    }
    if (args.has("bands")) {
        throw std::invalid_argument(
            "--bands was removed; the cpu engine slices by its thread count");
    }
    auto engines = parse_device_list(args.get("backend"));
    return engines.empty() ? fallback : engines;
}

}  // namespace pedsim::backend
