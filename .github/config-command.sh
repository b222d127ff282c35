#!/bin/sh
# Print the stburgers command that runs the checked-in config $1
# (configs/<name>.json): zero and manufactured are solve configs,
# sweep_mu is a sweep config, and every other config is named after
# its command.
#   sh .github/config-command.sh configs/zero.json   # prints: solve
name=$(basename "$1" .json)
case "$name" in
  zero|manufactured) echo solve ;;
  sweep_mu) echo sweep ;;
  *) echo "$name" ;;
esac
