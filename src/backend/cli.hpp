// Shared engine/backend CLI parsing: the one place harness flags turn
// into backend::EngineSelect lists, replacing the per-bench string
// comparisons. Every harness accepts the same spelling:
//
//   --backend=LIST   registry names cpu, gpu-simt, sharded-cpu (aliases
//                    gpu/simt/sharded); sharded-cpu takes an optional
//                    :<bands> suffix
//
// Unknown names throw std::invalid_argument with the registry list, so
// every CLI reports the same message.
#pragma once

#include <vector>

#include "backend/device.hpp"
#include "io/args.hpp"

namespace pedsim::backend {

/// Engine selections from --backend, or `fallback` when it is absent or
/// empty. The removed spellings --engines, --engine and --bands throw a
/// named std::invalid_argument: io::ArgParser ignores unknown flags, so
/// they would otherwise run the default engines silently.
std::vector<EngineSelect> engines_from_args(
    const io::ArgParser& args, std::vector<EngineSelect> fallback);

}  // namespace pedsim::backend
