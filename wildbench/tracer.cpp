#include "tracer.h"

#include <fstream>

#include "obs/json.h"

namespace wildbench {

int Tracer::layer(std::string_view name) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].name == name) return static_cast<int>(i);
  }
  layers_.push_back({std::string(name)});
  return static_cast<int>(layers_.size() - 1);
}

void Tracer::begin(int layer, bool keep) { stack_.push_back({layer, keep, Clock::now(), 0.0}); }

void Tracer::end() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const Clock::time_point now = Clock::now();
  const double ns = std::chrono::duration<double, std::nano>(now - frame.start).count();
  Layer& l = layers_[static_cast<std::size_t>(frame.layer)];
  l.total_ns += ns;
  l.self_ns += ns - frame.child_ns;
  ++l.calls;
  if (!stack_.empty()) stack_.back().child_ns += ns;
  if (frame.keep) {
    const auto since_origin = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::nano>(t - origin_).count();
    };
    spans_.push_back({frame.layer, stack_.empty() ? -1 : stack_.back().layer,
                      since_origin(frame.start), since_origin(now)});
  }
}

const Tracer::Layer* Tracer::find(std::string_view name) const {
  for (const Layer& l : layers_) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

double Tracer::self_ms(std::string_view name) const {
  const Layer* l = find(name);
  return l != nullptr ? l->self_ns / 1e6 : 0.0;
}

double Tracer::total_self_ms() const {
  double ns = 0.0;
  for (const Layer& l : layers_) ns += l.self_ns;
  return ns / 1e6;
}

bool Tracer::write(const std::filesystem::path& path) const {
  wildenergy::obs::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.kv("name", std::string_view{layers_[static_cast<std::size_t>(s.layer)].name});
    w.kv("ph", "X");
    w.kv("ts", s.start_ns / 1e3);
    w.kv("dur", (s.end_ns - s.start_ns) / 1e3);
    w.kv("pid", 1);
    w.kv("tid", 1);
    w.key("args");
    w.begin_object();
    const std::string_view parent =
        s.parent < 0 ? std::string_view{} : layers_[static_cast<std::size_t>(s.parent)].name;
    w.kv("parent", parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("layers");
  w.begin_array();
  for (const Layer& l : layers_) {
    w.begin_object();
    w.kv("name", std::string_view{l.name});
    w.kv("total_ms", l.total_ns / 1e6);
    w.kv("self_ms", l.self_ns / 1e6);
    w.kv("calls", l.calls);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out{path};
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

}  // namespace wildbench
