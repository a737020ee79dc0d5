# Shell helpers shared by the serving smokes (sourced, not run).

# json_string FILE: FILE's text as one JSON string literal on stdout.
# Escapes backslash, double quote, tab and newline, which is all a graph
# source can hold besides printable ASCII.
json_string() {
  tab=$(printf '\t')
  printf '"'
  sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e "s/$tab/\\\\t/g" "$1" |
    awk '{ printf "%s\\n", $0 }'
  printf '"'
}
