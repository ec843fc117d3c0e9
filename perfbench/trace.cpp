#include "trace.h"

namespace perfbench {

void Tracer::open(Layer layer, std::int64_t start_ns) {
  spans_.push_back(Span{start_ns, start_ns, parent(), instance_, seq_, layer});
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
}

void Tracer::close(std::int64_t end_ns) {
  spans_[static_cast<std::size_t>(open_.back())].end_ns = end_ns;
  open_.pop_back();
}

void Tracer::leaf(Layer layer, std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(Span{start_ns, end_ns, parent(), instance_, seq_, layer});
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

void write_spans(std::ostream& out, const std::vector<Span>& spans) {
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "index\tparent\tlayer\tevent\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.parent << '\t' << layer_name(s.layer) << '\t'
        << s.instance << ':' << s.seq << '\t' << s.start_ns - origin << '\t'
        << s.end_ns - origin << '\n';
  }
}

}  // namespace perfbench
