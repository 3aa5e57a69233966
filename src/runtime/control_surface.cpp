#include "runtime/control_surface.hpp"

#include <stdexcept>

namespace repro::runtime {

ControlSurface::~ControlSurface() = default;

namespace {
[[noreturn]] void unsupported(const ControlSurface& surface, const char* what) {
  throw std::logic_error(std::string(what) + ": not supported by the '" +
                         surface.backend_name() + "' backend");
}
}  // namespace

void ControlSurface::set_worker_slowdown(std::size_t, double) {
  unsupported(*this, "set_worker_slowdown");
}

void ControlSurface::set_worker_drop_prob(std::size_t, double) {
  unsupported(*this, "set_worker_drop_prob");
}

double ControlSurface::worker_slowdown(std::size_t) const {
  unsupported(*this, "worker_slowdown");
}

double ControlSurface::worker_drop_prob(std::size_t) const {
  unsupported(*this, "worker_drop_prob");
}

std::size_t ControlSurface::max_spout_pending() const {
  unsupported(*this, "max_spout_pending");
}

void ControlSurface::set_max_spout_pending(std::size_t) {
  unsupported(*this, "set_max_spout_pending");
}

void ControlSurface::crash_worker(std::size_t) { unsupported(*this, "crash_worker"); }

void ControlSurface::restart_worker(std::size_t) { unsupported(*this, "restart_worker"); }

void ControlSurface::add_worker(std::size_t) { unsupported(*this, "add_worker"); }

void ControlSurface::retire_worker(std::size_t) { unsupported(*this, "retire_worker"); }

void ControlSurface::migrate_tasks(const std::vector<dsps::TaskMove>&) {
  unsupported(*this, "migrate_tasks");
}

}  // namespace repro::runtime
