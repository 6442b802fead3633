// Test-only reference renderer (see reference_render.cpp).
#pragma once

#include "sensors/camera.h"

namespace dav {

/// CameraRenderer::render as a free function of the camera model and texture
/// strength, kept in its original per-pixel form as the oracle for the
/// optimized renderer.
Image reference_render(const CameraModel& model_, double texture_strength_,
                       const World& world, Rng& noise);

}  // namespace dav
