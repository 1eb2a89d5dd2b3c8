#pragma once

namespace ssum {

/// The CMAKE_BUILD_TYPE this library was compiled with ("Release",
/// "RelWithDebInfo", "Debug", ...); "unknown" when the build system did not
/// provide one. The benchmark prints it in its header and refuses any build
/// but Release, so its records never mix debug and release numbers.
const char* BuildType();

/// True for optimized build types (Release / RelWithDebInfo / MinSizeRel)
/// compiled with NDEBUG. perf_microbench refuses (exit 2) to write a JSON
/// file when this is false.
bool IsReleaseBuild();

}  // namespace ssum
