#!/usr/bin/env sh
# Configure, build and run the concurrency-sensitive tests under
# ThreadSanitizer (-Werror stays on). By default runs the suites that
# exercise the thread pool, parallel containment and governor cancellation
# propagation, each until it fails or 20 times in a row (the same flake
# gate as the tier-1 CI job); pass explicit ctest args to override.
# Usage: scripts/tsan.sh [extra ctest args...]
set -eu
cd "$(dirname "$0")/.."
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
if [ "$#" -eq 0 ]; then
  set -- -R 'base_test|governor_test|fault_injection_test|parallel_containment_test|cache_integration_test|omq_cache_test|instance_property_test|emptiness_agreement_test|server_test' \
    --repeat until-fail:20
fi
ctest --preset tsan -j"$(nproc)" "$@"
