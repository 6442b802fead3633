# Central compile/link policy for every DiverseAV target.
#
# All options live on one INTERFACE library, `dav_build_flags`, that every
# target links PRIVATE.  Keeping the policy in one place means a sanitizer or
# warning change takes effect across src/, tests/, bench/, examples/ and tools/
# without touching nine CMakeLists.

option(DAV_WERROR "Treat warnings as errors" ON)

# Semicolon-separated sanitizer list, e.g. -DDAV_SANITIZE=address;undefined
# or -DDAV_SANITIZE=thread (for the future parallel campaign driver).
set(DAV_SANITIZE "" CACHE STRING
    "Sanitizers to enable (any of: address;undefined;thread;leak)")

add_library(dav_build_flags INTERFACE)

target_compile_options(dav_build_flags INTERFACE
  -Wall
  -Wextra
  -Wshadow
  -Wnon-virtual-dtor
  # Results must be bit-identical on every target: never fuse a multiply and
  # an add into one FMA (the compiler may otherwise do so differently in a
  # kernel's plain and instrumented loops once -march allows FMA).
  -ffp-contract=off
)
if(DAV_WERROR)
  target_compile_options(dav_build_flags INTERFACE -Werror)
endif()

if(DAV_SANITIZE)
  set(_dav_san_flags "")
  foreach(_san IN LISTS DAV_SANITIZE)
    if(_san STREQUAL "thread" AND ("address" IN_LIST DAV_SANITIZE OR
                                   "leak" IN_LIST DAV_SANITIZE))
      message(FATAL_ERROR "DAV_SANITIZE: 'thread' cannot be combined with "
                          "'address' or 'leak'")
    endif()
    list(APPEND _dav_san_flags "-fsanitize=${_san}")
  endforeach()
  # Abort on the first UBSan report so ctest fails instead of scrolling past
  # diagnostics, and keep frames for readable ASan stacks.
  list(APPEND _dav_san_flags -fno-sanitize-recover=all -fno-omit-frame-pointer)
  target_compile_options(dav_build_flags INTERFACE ${_dav_san_flags})
  target_link_options(dav_build_flags INTERFACE ${_dav_san_flags})
  message(STATUS "DiverseAV: sanitizers enabled: ${DAV_SANITIZE}")
endif()

# clang-tidy gate (the `tidy` configure preset).  The container running CI or
# a dev box may lack clang-tidy; gate on find_program so the preset degrades
# to a plain build with a warning instead of a configure error.
option(DAV_CLANG_TIDY "Run clang-tidy on every compiled TU" OFF)
if(DAV_CLANG_TIDY)
  find_program(DAV_CLANG_TIDY_EXE clang-tidy)
  if(DAV_CLANG_TIDY_EXE)
    set(CMAKE_CXX_CLANG_TIDY "${DAV_CLANG_TIDY_EXE};--warnings-as-errors=*")
    message(STATUS "DiverseAV: clang-tidy gate enabled (${DAV_CLANG_TIDY_EXE})")
  else()
    message(WARNING "DAV_CLANG_TIDY=ON but clang-tidy was not found; "
                    "building without the tidy gate")
  endif()
endif()
